package main

import (
	"bytes"
	"fmt"
	"sort"

	"hideseek/internal/stream"
)

// syncTolerance is how far (in samples) a verdict's offset may sit from
// the generator's frame start and still match it. Sync refines to the
// correlation peak, which lands within a few samples of the true start.
const syncTolerance = 64

// verdictRec is the part of a verdict the checker and the latency
// metrics need, from either the in-process emit or the daemon's NDJSON.
type verdictRec struct {
	Offset  int64
	Payload []byte
	Attack  bool
	Decided bool
	Dropped bool
	Err     string
	QueueNS int64
}

// tally is a session's outcome against ground truth.
type tally struct {
	attempted int64 // frames generated
	corrupt   int64 // of which header-corrupted (correct outcome: no verdict)
	failed    int64 // frames whose outcome is not the correct one
	noVerdict int64 // frames with no correct verdict, corrupted ones included
	spurious  int64 // verdicts matching no generated frame, or a second verdict for one
	judged    int64 // decided verdicts on corrupted frames
	misjudged int64 // decided verdicts on valid frames with the wrong payload or label
	missed    int64 // valid frames that left no verdict at all
	// afterCorrupt counts the missed frames in an unbroken run of lost
	// frames that starts right after a corrupted one. The scanner has a
	// known defect there (README.md, findings): a false sync inside
	// undecodable data can make it skip the next frame's start, and so
	// on down a chain of closely spaced frames. Those losses count as
	// failed frames and in frame_error_frac, but do not make the run
	// incorrect.
	afterCorrupt int64
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.corrupt += o.corrupt
	t.failed += o.failed
	t.noVerdict += o.noVerdict
	t.spurious += o.spurious
	t.judged += o.judged
	t.misjudged += o.misjudged
	t.missed += o.missed
	t.afterCorrupt += o.afterCorrupt
}

// wrong counts outputs no correct program emits: verdicts for frames that
// were never sent, decisions on frames whose header is invalid, decisions
// with the wrong payload or label, and valid frames lost without a trace
// (other than the known defect after a corrupted frame). Dropped, shed
// and errored frames are reported by the program; they are failed frames,
// not wrong ones.
func (t tally) wrong() int64 { return t.spurious + t.judged + t.misjudged + t.missed - t.afterCorrupt }

func (t tally) String() string {
	return fmt.Sprintf("%d frames (%d corrupted on air), %d failed, %d spurious, %d judged-corrupt, %d misjudged, %d missed (%d after a corrupted frame)",
		t.attempted, t.corrupt, t.failed, t.spurious, t.judged, t.misjudged, t.missed, t.afterCorrupt)
}

// check matches verdicts to ground truth by offset, then compares payload
// and label. A frame counts as failed when it is missed, dropped, hits a
// decode or detect error, decodes to the wrong payload, or gets the wrong
// attack decision; a corrupted frame fails only if it gets a decision.
// matched[i] is the index of frame i's verdict, or -1.
func check(truth []truthFrame, verdicts []verdictRec) (t tally, matched []int) {
	t.attempted = int64(len(truth))
	matched = make([]int, len(truth))
	for i := range matched {
		matched[i] = -1
	}
	for vi, v := range verdicts {
		i := sort.Search(len(truth), func(i int) bool { return truth[i].Start >= v.Offset-syncTolerance })
		if i == len(truth) || truth[i].Start > v.Offset+syncTolerance || matched[i] >= 0 {
			t.spurious++
			continue
		}
		matched[i] = vi
	}
	chain := false // every frame since the last corrupted one was missed
	for i, f := range truth {
		vi := matched[i]
		if f.Corrupt {
			chain = true
			t.corrupt++
			t.noVerdict++
			if vi >= 0 && verdicts[vi].Decided {
				t.judged++
				t.failed++
			}
			continue
		}
		chain = chain && vi < 0
		switch {
		case vi < 0:
			t.missed++
			if chain {
				t.afterCorrupt++
			}
		case correctVerdict(f, verdicts[vi]):
			continue
		case verdicts[vi].Decided:
			t.misjudged++
		}
		t.noVerdict++
		t.failed++
	}
	return t, matched
}

func correctVerdict(f truthFrame, v verdictRec) bool {
	return v.Decided && v.Attack == f.Attack && bytes.Equal(v.Payload, f.Payload)
}

// unaccounted returns how many synced frames left no trace: every frame
// the scanner synced must leave as exactly one verdict, and Stats.Frames
// must equal the decided verdicts seen plus the drops and decode/detect
// errors Stats counted.
func unaccounted(st stream.Stats, verdicts []verdictRec) int64 {
	var decided int64
	for _, v := range verdicts {
		if v.Decided {
			decided++
		}
	}
	return abs64(st.Frames-(decided+st.Dropped+st.DecodeErrors+st.DetectErrors)) + abs64(st.Frames-int64(len(verdicts)))
}

// outcome accumulates correctness over sessions.
type outcome struct {
	tally       tally
	unaccounted int64
}

// addSession checks one session's verdicts against its ground truth and
// its Stats, and returns the verdict index matched to each frame.
func (o *outcome) addSession(frames []truthFrame, st stream.Stats, verdicts []verdictRec) []int {
	t, matched := check(frames, verdicts)
	o.tally.add(t)
	o.unaccounted += unaccounted(st, verdicts)
	return matched
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
