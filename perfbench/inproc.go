package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"hideseek/internal/iq"
	"hideseek/internal/phy"
	"hideseek/internal/stream"

	_ "hideseek/internal/phy/loraphy"
	_ "hideseek/internal/phy/zigbeephy"
)

// The daemon's defaults (cmd/hideseekd flags), used in process too so the
// closed loops and the daemon-live replay run the operating point the
// daemon serves.
const (
	chunkSize  = 4096
	queueDepth = 256
	maxPending = 64
	// zigbeeSync is the daemon's zigbee sync threshold (below the
	// receiver's own 0.5 default, to catch weak preambles).
	zigbeeSync = 0.3
)

// buildPipelines builds the named protocols as hideseekd does.
func buildPipelines(protos []string) ([]*phy.Pipeline, error) {
	var out []*phy.Pipeline
	for _, name := range protos {
		opts := phy.Options{}
		if name == "zigbee" {
			opts.SyncThreshold = zigbeeSync
		}
		p, err := phy.Build(name, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func newFleet(pipes []*phy.Pipeline) (*stream.Fleet, error) {
	return stream.NewFleet(stream.FleetConfig{Config: stream.Config{
		ChunkSize: chunkSize, QueueDepth: queueDepth, MaxPending: maxPending, Pipelines: pipes,
	}})
}

// protosOf lists the protocols of in's sessions, each once, in order.
func protosOf(in *inputs) []string {
	var ps []string
	for _, s := range in.Sessions {
		if len(ps) == 0 || ps[len(ps)-1] != s.Proto {
			ps = append(ps, s.Proto)
		}
	}
	return ps
}

// sessionRun is one session's outcome.
type sessionRun struct {
	stats    stream.Stats
	verdicts []verdictRec
}

// runSession streams one session's cf32 file through the fleet. With a
// protoTrace the source is wrapped and the consumer's own time recorded.
func runSession(ctx context.Context, fleet *stream.Fleet, s sessionInput, pt *protoTrace, src stream.Source, onVerdict func(stream.Verdict)) (sessionRun, error) {
	var f *os.File
	if src == nil {
		var err error
		if f, err = os.Open(s.File); err != nil {
			return sessionRun{}, err
		}
		defer f.Close()
		src = iq.NewReaderCF32(f)
	}
	var ts *tracedSource
	if pt != nil {
		// The scanner runs on this goroutine; wire it to its thread so the
		// thread's CPU clock is the scanner's (see trace.go).
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		ts = pt.bind(src)
		src = ts
	}
	out := sessionRun{verdicts: make([]verdictRec, 0, len(s.Frames)+16)}
	emit := func(v stream.Verdict) {
		var t0 time.Time
		if pt != nil {
			t0 = time.Now()
		}
		out.verdicts = append(out.verdicts, verdictRec{
			Offset: v.Offset, Payload: v.PSDU, Attack: v.Attack, Decided: v.Decided(),
			Dropped: v.Dropped, Err: v.Err, QueueNS: v.QueueNS,
		})
		if onVerdict != nil {
			onVerdict(v)
		}
		if pt != nil {
			// The delivery goroutine is not wired to a thread: wall time.
			t1 := time.Now()
			pt.rec.add(layerEmit, t0, t1, t1.Sub(t0).Nanoseconds(), v.Offset, -1)
		}
	}
	if ts != nil {
		ts.start()
		defer ts.finish()
	}
	var err error
	out.stats, err = fleet.Process(ctx, src, emit, stream.WithProto(s.Proto))
	return out, err
}

// pass streams one or more sessions' files, one after the other, so a
// traced phase has one scanner at a time and each session's spans stay
// apart.
type pass struct {
	wall, cpu time.Duration
	peakRSSMB float64 // this process's peak RSS during the pass
	sessions  []sessionInput
	runs      []sessionRun
}

func (p pass) frames() int64 {
	var n int64
	for _, r := range p.runs {
		n += r.stats.Frames
	}
	return n
}

func (p pass) samples() int64 {
	var n int64
	for _, r := range p.runs {
		n += r.stats.Samples
	}
	return n
}

func runPass(ctx context.Context, fleet *stream.Fleet, sessions []sessionInput, traces map[string]*protoTrace) (pass, error) {
	p := pass{sessions: sessions, runs: make([]sessionRun, len(sessions))}
	rssReset := resetPeakRSS() == nil
	cpu0, t0 := cpuSelf(), time.Now()
	for i, s := range sessions {
		var err error
		if p.runs[i], err = runSession(ctx, fleet, s, traces[s.Proto], nil, nil); err != nil {
			return p, err
		}
	}
	p.wall, p.cpu = time.Since(t0), cpuSelf()-cpu0
	p.peakRSSMB = peakRSSSelfMB() // whole-process peak when VmHWM cannot be reset
	if rssReset {
		if mb, err := procPeakRSSMB(os.Getpid()); err == nil {
			p.peakRSSMB = mb
		}
	}
	return p, nil
}

func (o *outcome) addPass(p pass) {
	for i, s := range p.sessions {
		o.addSession(s.Frames, p.runs[i].stats, p.runs[i].verdicts)
	}
}

// phaseResult is a series of passes.
type phaseResult struct {
	passes     []pass
	cpu        time.Duration
	out        outcome
	cycle      outcome            // the first pass over every segment
	gs         goStats            // runtime counters over the phase
	phaseCPU   time.Duration      // this process's CPU over the same window as gs
	busy       [numLayers]int64   // traced phases: ns per layer
	syncInputs map[string]float64 // traced phases: samples the sync calls scanned
}

func (ph *phaseResult) frames() int64 {
	var n int64
	for _, p := range ph.passes {
		n += p.frames()
	}
	return n
}

// protoStats sums Stats.Frames, Samples and SyncRejects of one protocol.
func (ph *phaseResult) protoStats(proto string) (frames, samples, rejects int64) {
	for _, p := range ph.passes {
		for i, s := range p.sessions {
			if s.Proto == proto {
				frames += p.runs[i].stats.Frames
				samples += p.runs[i].stats.Samples
				rejects += p.runs[i].stats.SyncRejects
			}
		}
	}
	return
}

// passSessions is what pass k of a phase streams: every session at once
// for the daemon-live replay, and one segment file after the other, in
// turn, for a closed loop.
func passSessions(in *inputs, live bool, k int) []sessionInput {
	if live {
		return in.Sessions
	}
	i := k % len(in.Sessions)
	return in.Sessions[i : i+1]
}

// runPhase runs passes until minDur has elapsed, every segment has been
// streamed at least once, and between (when not nil), which runs after
// each pass, asks for no more. cycle is the outcome of the first pass
// over each segment: the same frames on every run of a seed.
func runPhase(ctx context.Context, fleet *stream.Fleet, in *inputs, live bool, traces map[string]*protoTrace, rec *recorder, minDur time.Duration, between func() (more bool, err error)) (*phaseResult, error) {
	ph := &phaseResult{syncInputs: map[string]float64{}}
	var busy0 [numLayers]int64
	sync0 := map[string]int64{}
	if rec != nil {
		busy0 = rec.snapshot()
		for proto, pt := range traces {
			sync0[proto] = pt.syncSamplesNow()
		}
	}
	gs0 := readGoStats()
	cpu0 := cpuSelf()
	start := time.Now()
	cycle := 1 // the daemon-live replay streams every session each pass
	if !live {
		cycle = len(in.Sessions)
	}
	for more := true; len(ph.passes) < cycle || time.Since(start) < minDur || more; {
		more = false
		p, err := runPass(ctx, fleet, passSessions(in, live, len(ph.passes)), traces)
		if err != nil {
			return nil, err
		}
		ph.passes = append(ph.passes, p)
		ph.cpu += p.cpu
		if between != nil {
			var err error
			if more, err = between(); err != nil {
				return nil, err
			}
		}
	}
	ph.gs = readGoStats().sub(gs0)
	ph.phaseCPU = cpuSelf() - cpu0
	if rec != nil {
		busy := rec.snapshot()
		for i := range busy {
			ph.busy[i] = busy[i] - busy0[i]
		}
		for proto, pt := range traces {
			ph.syncInputs[proto] = float64(pt.syncSamplesNow() - sync0[proto])
		}
	}
	for k, p := range ph.passes {
		ph.out.addPass(p)
		if k < cycle {
			ph.cycle.addPass(p)
		}
	}
	return ph, nil
}

func (pt *protoTrace) syncSamplesNow() int64 {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.syncSamples
}

// runPaced streams one latency segment through the generator
// daemon-live uses — 1024-sample blocks, each written when its last
// sample is due — and returns each frame's latency as frameLatencies
// gives it, with the same 4096-sample chunk wait in it, and how many
// frames the generator stalled on. As for daemon-live, the generator is
// a process of its own, so it never waits for a processor the program
// under test holds; its samples arrive through a pipe.
func runPaced(ctx context.Context, fleet *stream.Fleet, s sessionInput, rate float64) ([]float64, int, outcome, error) {
	var out outcome
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, out, err
	}
	t0 := time.Now().Add(50 * time.Millisecond) // lets the generator start before its first block is due
	var logBuf bytes.Buffer
	cmd := exec.Command(exe, "-pace", s.File, "-pace-rate", strconv.FormatFloat(rate, 'g', -1, 64),
		"-pace-t0", strconv.FormatInt(t0.UnixNano(), 10))
	cmd.Stderr = &logBuf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, out, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, out, err
	}
	var arrivals []time.Time
	r, err := runSession(ctx, fleet, s, nil, iq.NewReaderCF32(stdout), func(stream.Verdict) { arrivals = append(arrivals, time.Now()) })
	if err != nil {
		cmd.Process.Kill()
	}
	if werr := cmd.Wait(); err == nil && werr != nil {
		err = fmt.Errorf("generator: %w: %s", werr, logBuf.String())
	}
	if err != nil {
		return nil, 0, out, err
	}
	var log sendLog
	if err := json.Unmarshal(logBuf.Bytes(), &log); err != nil {
		return nil, 0, out, fmt.Errorf("generator log: %w", err)
	}
	matched := out.addSession(s.Frames, r.stats, r.verdicts)
	lat, skipped := frameLatencies(s.Frames, r.verdicts, arrivals, matched, t0, rate, &log)
	return lat, skipped, out, nil
}

// paceMain is the closed loops' generator process: it paces file to
// standard output from t0 (Unix ns) and writes its send log, as JSON,
// to standard error.
func paceMain(file string, rate float64, t0 int64) error {
	runtime.GOMAXPROCS(1) // it only sleeps and writes
	var log sendLog
	if err := pace(os.Stdout, file, rate, time.Unix(0, t0), &log); err != nil {
		return err
	}
	return json.NewEncoder(os.Stderr).Encode(&log)
}

// A closed loop paces each of its latencySegments latency segments
// latencyRepeats times, in turn, and daemon-live sends its streams
// latencyRepeats times over, so each repeat of a frame falls at another
// time. A frame's latency is the median of its repeats: a hiccup of the
// shared machine delays one repeat, a slower program delays all of them.
const (
	latencySegments = 4
	latencyRepeats  = 5
)
