package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"hideseek/internal/stream"
)

// tinyWorkload is a small zigbee+lora mix, so the self-tests synthesize
// and run in a few seconds.
var tinyWorkload = workload{name: "tiny", live: true, sessions: []traffic{
	{proto: "zigbee", frames: 40, lenMin: 20, lenMax: 40, gapMin: 500, gapMax: 3000, pool: 2, snrMin: 16, snrMax: 24},
	{proto: "lora", frames: 16, lenMin: 8, lenMax: 12, gapMin: 2000, gapMax: 6000, pool: 1, snrMin: 16, snrMax: 24},
}}

func synthTiny(t *testing.T, seed int64) *inputs {
	t.Helper()
	in, err := synthesize(tinyWorkload, seed, 1, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b, c := synthTiny(t, 7), synthTiny(t, 7), synthTiny(t, 8)
	for i := range a.Sessions {
		fa, err := os.ReadFile(a.Sessions[i].File)
		if err != nil {
			t.Fatal(err)
		}
		fb, _ := os.ReadFile(b.Sessions[i].File)
		fc, _ := os.ReadFile(c.Sessions[i].File)
		if !bytes.Equal(fa, fb) {
			t.Errorf("%s: same seed gave different samples", a.Sessions[i].Proto)
		}
		if bytes.Equal(fa, fc) {
			t.Errorf("%s: different seeds gave the same samples", a.Sessions[i].Proto)
		}
		ta, _ := json.Marshal(a.Sessions[i].Frames)
		tb, _ := json.Marshal(b.Sessions[i].Frames)
		if !bytes.Equal(ta, tb) {
			t.Errorf("%s: same seed gave different ground truth", a.Sessions[i].Proto)
		}
	}
}

// runTiny streams every session of in through a fresh fleet, traced or
// not, and returns each session's verdicts with the timing fields zeroed.
func runTiny(t *testing.T, in *inputs, traced bool) [][]byte {
	t.Helper()
	var fleet *stream.Fleet
	var traces map[string]*protoTrace
	var err error
	if traced {
		fleet, traces, err = tracedFleet(protosOf(in), newRecorder())
	} else {
		var pipes, perr = buildPipelines(protosOf(in))
		if perr != nil {
			t.Fatal(perr)
		}
		fleet, err = newFleet(pipes)
	}
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	var out [][]byte
	for _, s := range in.Sessions {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		_, err := runSession(context.Background(), fleet, s, traces[s.Proto], nil, func(v stream.Verdict) {
			v.ScanNS, v.QueueNS, v.DecodeNS, v.DetectNS = 0, 0, 0, 0
			enc.Encode(v)
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

func TestWrappedPipelineGivesIdenticalVerdicts(t *testing.T) {
	in := synthTiny(t, 3)
	plain, traced := runTiny(t, in, false), runTiny(t, in, true)
	for i, s := range in.Sessions {
		if len(plain[i]) == 0 {
			t.Fatalf("%s: no verdicts", s.Proto)
		}
		if !bytes.Equal(plain[i], traced[i]) {
			t.Errorf("%s: traced verdicts differ from untraced ones", s.Proto)
		}
	}
}

func TestCheckerCatchesWrongAndMissingVerdicts(t *testing.T) {
	in := synthTiny(t, 5)
	pipes, err := buildPipelines(protosOf(in))
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := newFleet(pipes)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	lostAfterCorrupt := 0
	for _, s := range in.Sessions {
		r, err := runSession(context.Background(), fleet, s, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		base, matched := check(s.Frames, r.verdicts)
		if u := unaccounted(r.stats, r.verdicts); base.failed != 0 || base.wrong() != 0 || u != 0 {
			t.Fatalf("%s: clean run: %v, unaccounted %d", s.Proto, base, u)
		}
		if base.corrupt == 0 || base.noVerdict != base.corrupt {
			t.Fatalf("%s: want the corrupted frames, and only them, without a verdict: %v", s.Proto, base)
		}
		mutate := func(name string, f func([]verdictRec) []verdictRec, wantFailed, wantWrong int64, wantUnaccounted bool) {
			vs := f(append([]verdictRec(nil), r.verdicts...))
			got, _ := check(s.Frames, vs)
			if got.failed != wantFailed || got.wrong() != wantWrong {
				t.Errorf("%s %s: %v, want %d failed and %d wrong", s.Proto, name, got, wantFailed, wantWrong)
			}
			if u := unaccounted(r.stats, vs); (u != 0) != wantUnaccounted {
				t.Errorf("%s %s: unaccounted %d", s.Proto, name, u)
			}
		}
		mutate("wrong payload", func(vs []verdictRec) []verdictRec {
			vs[0].Payload = append([]byte{vs[0].Payload[0] ^ 1}, vs[0].Payload[1:]...)
			return vs
		}, 1, 1, false)
		mutate("wrong label", func(vs []verdictRec) []verdictRec {
			vs[1].Attack = !vs[1].Attack
			return vs
		}, 1, 1, false)
		// A lost valid frame makes the run wrong, unless it directly
		// follows a corrupted frame (the scanner's known defect there).
		lose := func(afterCorrupt bool) int {
			for i, f := range s.Frames {
				if !f.Corrupt && i > 0 && s.Frames[i-1].Corrupt == afterCorrupt {
					return matched[i]
				}
			}
			return -1
		}
		without := func(vi int) func([]verdictRec) []verdictRec {
			return func(vs []verdictRec) []verdictRec { return append(vs[:vi], vs[vi+1:]...) }
		}
		mutate("missing verdict", without(lose(false)), 1, 1, true)
		if vi := lose(true); vi >= 0 {
			mutate("missing verdict after a corrupted frame", without(vi), 1, 0, true)
			lostAfterCorrupt++
		}
		mutate("decode error", func(vs []verdictRec) []verdictRec {
			vs[2].Decided, vs[2].Err = false, "injected"
			return vs
		}, 1, 0, true)
		mutate("spurious verdict", func(vs []verdictRec) []verdictRec {
			return append(vs, verdictRec{Offset: s.Samples + 10*syncTolerance, Decided: true})
		}, 0, 1, true)
		corrupt := -1
		for i, f := range s.Frames {
			if f.Corrupt {
				corrupt = i
				break
			}
		}
		mutate("decision on a corrupted frame", func(vs []verdictRec) []verdictRec {
			return append(vs, verdictRec{Offset: s.Frames[corrupt].Start, Decided: true})
		}, 1, 1, true)
	}
	if lostAfterCorrupt == 0 {
		t.Error("no valid frame follows a corrupted one: the known-defect case went untested")
	}
}

// stallWriter consumes each write slower than the paced rate produces it.
type stallWriter struct{ delay time.Duration }

func (w stallWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return len(p), nil
}

func TestPaceTimesFromDueTime(t *testing.T) {
	const blocks = 40
	file := filepath.Join(t.TempDir(), "s.cf32")
	if err := os.WriteFile(file, make([]byte, 8*sendBlock*blocks), 0o644); err != nil {
		t.Fatal(err)
	}
	// One block is due every ~1 ms; the consumer takes 3 ms per block, so
	// the generator falls further behind its schedule with every block.
	var log sendLog
	if err := pace(stallWriter{3 * time.Millisecond}, file, 1e6, time.Now(), &log); err != nil {
		t.Fatal(err)
	}
	lags := log.LagMS
	if len(lags) != blocks {
		t.Fatalf("%d lags for %d blocks", len(lags), blocks)
	}
	early, late := median(lags[5:10]), median(lags[blocks-5:])
	if late < early+50 {
		t.Errorf("lag did not grow under a stalled consumer: %.1f ms then %.1f ms", early, late)
	}
	// Lateness from backpressure is the program's: no frame is left out
	// of the latency percentiles for it, and none of it is taken off a
	// frame's latency. The generator's own lateness stays near what it
	// was when it woke for the first block (its own loop adds a little
	// per block), while the lag grows by 2 ms a block.
	first := log.StallMS[0]
	for k := int64(1); k <= blocks; k++ {
		if st := log.stall(k * sendBlock); st > first+genStallMS {
			t.Errorf("block %d: %.2f ms of the generator's own lateness, %.2f ms at the first block: backpressure counted as its own", k-1, st, first)
		}
	}
	// A consumer that keeps up leaves the generator on schedule.
	log = sendLog{}
	if err := pace(stallWriter{}, file, 1e6, time.Now(), &log); err != nil {
		t.Fatal(err)
	}
	if p := percentile(log.LagMS, 50); p > 5 {
		t.Errorf("median lag %.1f ms with a consumer that keeps up", p)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestMedianCI(t *testing.T) {
	// n = 11: ranks floor(5.5-3.25) = 2 and ceil(6.5+3.25) = 10.
	xs := []float64{11, 1, 10, 2, 9, 3, 8, 4, 7, 5, 6}
	if lo, hi := medianCI(xs); lo != 2 || hi != 10 {
		t.Errorf("medianCI = %v..%v, want 2..10", lo, hi)
	}
	// The interval narrows as samples of the same spread accumulate.
	var many []float64
	for i := 0; i < 60; i++ {
		many = append(many, float64(i%11+1))
	}
	if lo, hi := medianCI(many); hi-lo >= 8 {
		t.Errorf("medianCI over 60 samples = %v..%v, no narrower than over 11", lo, hi)
	}
}

func TestLossChainAfterCorruptedFrame(t *testing.T) {
	truth := []truthFrame{
		{Start: 0, Payload: []byte{1}},
		{Start: 1000, Corrupt: true},
		{Start: 2000, Payload: []byte{2}},
		{Start: 3000, Payload: []byte{3}},
		{Start: 4000, Payload: []byte{4}},
	}
	verdict := func(i int) verdictRec {
		return verdictRec{Offset: truth[i].Start, Payload: truth[i].Payload, Decided: true}
	}
	// Frames 2 and 3 lost in a row after the corrupted frame: the known
	// scanner defect, failed but not wrong.
	got, _ := check(truth, []verdictRec{verdict(0), verdict(4)})
	if got.failed != 2 || got.afterCorrupt != 2 || got.wrong() != 0 {
		t.Errorf("chain after a corrupted frame: %v", got)
	}
	// Frame 3 lost after frame 2 got its verdict: the chain is broken,
	// so the loss is wrong.
	got, _ = check(truth, []verdictRec{verdict(0), verdict(2), verdict(4)})
	if got.failed != 1 || got.afterCorrupt != 0 || got.wrong() != 1 {
		t.Errorf("loss after a decided frame: %v", got)
	}
	// Frame 0 lost with no corrupted frame before it: wrong.
	got, _ = check(truth, []verdictRec{verdict(2), verdict(3), verdict(4)})
	if got.failed != 1 || got.wrong() != 1 {
		t.Errorf("loss with no corrupted frame before it: %v", got)
	}
}

func TestRepeatsTakeMedianPerFrame(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	r := repeats{}
	// One stream of two frames sent three times over: frame i repeats
	// frame i % 2. Frame 0's middle repeat hit a hiccup; one repeat of
	// frame 1 was left out (NaN).
	r.add(0, []float64{4, 10, 90, nan, 5, 11}, 2)
	// Another stream, one frame, lost on its second pacing.
	r.add(1, []float64{3}, 0)
	r.add(1, []float64{inf}, 0)
	got := r.latencies()
	sort.Float64s(got)
	want := []float64{5, 10.5, inf}
	if len(got) != len(want) {
		t.Fatalf("latencies = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("latencies = %v, want %v", got, want)
		}
	}
}

func TestLatencyTakesOffGeneratorLateness(t *testing.T) {
	const rate = 1e6 // one sample per microsecond
	t0 := time.Unix(100, 0)
	// Three frames, each ending in its own block: the generator itself
	// was 2 ms late for the first, on time for the second, 7 ms late for
	// the third (a stall, left out).
	frames := []truthFrame{
		{End: 1 * sendBlock, Payload: []byte{1}},
		{End: 2 * sendBlock, Payload: []byte{2}},
		{End: 3 * sendBlock, Payload: []byte{3}},
	}
	log := sendLog{StallMS: []float64{2, 0, 7}}
	var verdicts []verdictRec
	var arrivals []time.Time
	for _, f := range frames {
		verdicts = append(verdicts, verdictRec{Payload: f.Payload, Decided: true})
		arrivals = append(arrivals, t0.Add(samplesDur(f.End, rate)+5*time.Millisecond))
	}
	lat, skipped := frameLatencies(frames, verdicts, arrivals, []int{0, 1, 2}, t0, rate, &log)
	if skipped != 1 || len(lat) != 3 || math.Abs(lat[0]-3) > 1e-9 || math.Abs(lat[1]-5) > 1e-9 || !math.IsNaN(lat[2]) {
		t.Errorf("latencies %v, %d skipped; want [3 5 NaN], 1 skipped", lat, skipped)
	}
}

func TestStampConnGivesKernelReceiveTime(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ready, sent := make(chan struct{}), make(chan time.Time, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		<-ready // the kernel stamps only what arrives after stamping is on
		sent <- time.Now()
		c.Write([]byte("verdict\n"))
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sc, err := newStampConn(c.(*net.TCPConn))
	if err != nil {
		t.Fatal(err)
	}
	close(ready)
	// The line waits 50 ms in the socket before it is read: its stamp
	// is when it arrived, not when it was read.
	t0 := <-sent
	time.Sleep(50 * time.Millisecond)
	line, err := bufio.NewReader(sc).ReadString('\n')
	read := time.Now()
	if err != nil || line != "verdict\n" {
		t.Fatalf("read %q, %v", line, err)
	}
	if got := sc.received(); got.Before(t0) || read.Sub(got) < 40*time.Millisecond {
		t.Errorf("stamped %v after the write and %v before the read; want the kernel's receive time", got.Sub(t0), read.Sub(got))
	}
	if _, err := sc.Read(make([]byte, 8)); err != io.EOF {
		t.Errorf("read after the peer closed: %v, want EOF", err)
	}
}
