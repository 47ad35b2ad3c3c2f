package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"hideseek/internal/phy"
	"hideseek/internal/stream"
	"hideseek/internal/zigbee"
)

// Outside-in tracing. The traced run passes wrappers around
// phy.Receiver, phy.Detector and stream.Source into the real stream.Fleet
// through Config.Pipelines; nothing inside the program changes. Each
// wrapper times the call it forwards and keeps a span (layer, start, end,
// CPU, frame, parent) in memory; the spans are written out when the run
// ends. Verdict.ScanNS is not used: it covers only the final scan step of
// a frame, not the rescans that precede it.
//
// Busy time is thread CPU time, not wall time: with the scanner and two
// workers sharing two processors, wall time inside a call also counts
// the time its goroutine waited for a processor. For the thread clock to
// belong to one goroutine, the traced goroutines are wired to their
// threads (runtime.LockOSThread): the session's scanner by the benchmark,
// which calls Fleet.Process, and each worker by its receiver clone on its
// first DecodeAt. A wired goroutine's thread runs nothing else, so the
// CPU its thread spends between two wrapped calls is the stream package's
// own work on that goroutine: that is stream.self.

// Layer indices. A protocol's layers sit at base+{sync,span,decode,detect}.
const (
	layerIQRead = iota
	layerZigbee // zigbee.sync, zigbee.frame_span, zigbee.decode, emulation.detect
	_
	_
	_
	layerLoRa // lora.sync, lora.frame_span, lora.decode, lora.detect
	_
	_
	_
	layerSNR        // bench-only probe: zigbee.OutOfBandSNREstimate on the decoded span
	layerSelfScan   // stream code on the scanner between wrapped calls
	layerSelfWorker // stream code on a worker between wrapped calls
	layerEmit       // the benchmark's own verdict consumer (wall time)
	numLayers
)

const (
	offSync = iota
	offSpan
	offDecode
	offDetect
)

var layerNames = [numLayers]string{
	"iq.read",
	"zigbee.sync", "zigbee.frame_span", "zigbee.decode", "emulation.detect",
	"lora.sync", "lora.frame_span", "lora.decode", "lora.detect",
	"zigbee.snr", "stream.self.scanner", "stream.self.worker", "bench.emit",
}

func protoBase(proto string) int {
	if proto == "lora" {
		return layerLoRa
	}
	return layerZigbee
}

// threadCPU returns the calling thread's CPU time in ns
// (CLOCK_THREAD_CPUTIME_ID; user and system time).
func threadCPU() int64 {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// span is one timed call. Frame is the absolute stream offset of the
// frame the call worked on (-1 when the call is not about one frame).
type span struct {
	id, parent int64
	layer      int
	frame      int64
	start, end int64 // wall ns since the recorder's epoch
	cpu        int64 // thread CPU ns
}

// recorder keeps spans in memory and sums busy CPU per layer.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	busy  [numLayers]int64 // ns
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) add(layer int, start, end time.Time, cpu, frame, parent int64) int64 {
	s, e := start.Sub(r.epoch).Nanoseconds(), end.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	id := int64(len(r.spans)) + 1
	r.spans = append(r.spans, span{id: id, parent: parent, layer: layer, frame: frame, start: s, end: e, cpu: cpu})
	r.busy[layer] += cpu
	r.mu.Unlock()
	return id
}

// snapshot returns the per-layer busy totals so far.
func (r *recorder) snapshot() [numLayers]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.busy
}

// writeTSV writes every span, one per line.
func (r *recorder) writeTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(bw, "id\tparent\tlayer\tframe\tstart_ns\tend_ns\tcpu_ns")
	r.mu.Lock()
	for _, s := range r.spans {
		fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", s.id, s.parent, layerNames[s.layer], s.frame, s.start, s.end, s.cpu)
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goroutineClock follows one wired goroutine: every wrapped call on it
// enters and exits through the clock, and the thread CPU between one
// call's exit and the next call's entry is recorded as selfLayer.
type goroutineClock struct {
	rec       *recorder
	selfLayer int
	last      int64 // thread CPU at the last exit; valid when started
	lastWall  time.Time
	lastSpan  int64
	started   bool
}

func (c *goroutineClock) enter() (time.Time, int64) {
	now, cpu := time.Now(), threadCPU()
	if c.started {
		c.rec.add(c.selfLayer, c.lastWall, now, cpu-c.last, -1, c.lastSpan)
	}
	return now, cpu
}

// exit records the call's span and restarts the self-time gap.
func (c *goroutineClock) exit(layer int, wall0 time.Time, cpu0, frame, parent int64) int64 {
	now, cpu := time.Now(), threadCPU()
	id := c.rec.add(layer, wall0, now, cpu-cpu0, frame, parent)
	c.last, c.lastWall, c.lastSpan, c.started = cpu, now, id, true
	return id
}

// protoTrace is the state one protocol's wrappers share: the recorder,
// the source of the session currently bound to the protocol (the
// benchmark runs one session at a time), the frames the scanner has
// dispatched but no worker has decoded yet, and how many samples the
// sync calls scanned.
type protoTrace struct {
	rec  *recorder
	base int
	snr  bool // time zigbee.OutOfBandSNREstimate on each decoded span

	src *tracedSource // set before each session; read by its scanner

	mu          sync.Mutex
	dispatched  map[uint64]dispatch // keyed by sync peak bits
	syncSamples int64
}

type dispatch struct{ frame, spanID int64 }

// wrapPipeline returns p with traced receiver and detector prototypes.
func wrapPipeline(p *phy.Pipeline, rec *recorder) (*phy.Pipeline, *protoTrace) {
	pt := &protoTrace{rec: rec, base: protoBase(p.Protocol), snr: p.Protocol == "zigbee", dispatched: map[uint64]dispatch{}}
	return &phy.Pipeline{
		Protocol: p.Protocol,
		Receiver: &tracedRx{inner: p.Receiver, pt: pt},
		Detector: tracedDet{inner: p.Detector, pt: pt},
	}, pt
}

// bind attaches the next session's source to the protocol. The caller
// runs the session on a goroutine wired to its thread.
func (pt *protoTrace) bind(src stream.Source) *tracedSource {
	pt.src = &tracedSource{inner: src, clock: &goroutineClock{rec: pt.rec, selfLayer: layerSelfScan, lastSpan: -1}}
	return pt.src
}

// tracedRx wraps a phy.Receiver. The scanner's clone calls
// SynchronizeFirst and FrameSpan; worker clones call DecodeAt.
type tracedRx struct {
	inner    phy.Receiver
	pt       *protoTrace
	lastPeak float64 // scanner: peak of the last successful sync
	lastSync int64   // scanner: span id of the last sync call
	worker   *goroutineClock
	rec      tracedRec
}

func (r *tracedRx) Clone() phy.Receiver  { return &tracedRx{inner: r.inner.Clone(), pt: r.pt} }
func (r *tracedRx) SyncRefSamples() int  { return r.inner.SyncRefSamples() }
func (r *tracedRx) HeaderSamples() int   { return r.inner.HeaderSamples() }
func (r *tracedRx) MaxFrameSamples() int { return r.inner.MaxFrameSamples() }
func (r *tracedRx) TailSamples() int     { return r.inner.TailSamples() }

// absolute maps an index into the scanner's window to a stream offset:
// the window always ends at the newest ingested sample.
func (r *tracedRx) absolute(w []complex128, i int) int64 {
	return r.pt.src.samples - int64(len(w)) + int64(i)
}

// SyncThreshold forwards phy.SyncTuner.
func (r *tracedRx) SyncThreshold() float64 {
	if st, ok := r.inner.(phy.SyncTuner); ok {
		return st.SyncThreshold()
	}
	return 0
}

// CloneWithSyncThreshold forwards phy.SyncTuner.
func (r *tracedRx) CloneWithSyncThreshold(t float64) (phy.Receiver, error) {
	st, ok := r.inner.(phy.SyncTuner)
	if !ok {
		return nil, fmt.Errorf("perfbench: %T has no sync threshold", r.inner)
	}
	rx, err := st.CloneWithSyncThreshold(t)
	if err != nil {
		return nil, err
	}
	return &tracedRx{inner: rx, pt: r.pt}, nil
}

func (r *tracedRx) SynchronizeFirst(w []complex128) (int, float64, error) {
	src := r.pt.src
	wall0, cpu0 := src.clock.enter()
	start, peak, err := r.inner.SynchronizeFirst(w)
	frame := int64(-1)
	if err == nil {
		frame = r.absolute(w, start)
		r.lastPeak = peak
	}
	r.lastSync = src.clock.exit(r.pt.base+offSync, wall0, cpu0, frame, src.lastRead)
	r.pt.mu.Lock()
	r.pt.syncSamples += int64(len(w))
	r.pt.mu.Unlock()
	return start, peak, err
}

func (r *tracedRx) FrameSpan(w []complex128, start int) (int, error) {
	src := r.pt.src
	wall0, cpu0 := src.clock.enter()
	n, err := r.inner.FrameSpan(w, start)
	frame := r.absolute(w, start)
	id := src.clock.exit(r.pt.base+offSpan, wall0, cpu0, frame, r.lastSync)
	if err == nil {
		r.pt.mu.Lock()
		r.pt.dispatched[math.Float64bits(r.lastPeak)] = dispatch{frame: frame, spanID: id}
		r.pt.mu.Unlock()
	}
	return n, err
}

func (r *tracedRx) DecodeAt(w []complex128, start int, syncPeak float64) (phy.Reception, error) {
	if r.worker == nil {
		// First call on this worker's goroutine: wire it to its thread for
		// the rest of its life (the runtime retires the thread when the
		// goroutine exits at Fleet.Close).
		runtime.LockOSThread()
		r.worker = &goroutineClock{rec: r.pt.rec, selfLayer: layerSelfWorker}
	}
	wall0, cpu0 := r.worker.enter()
	r.pt.mu.Lock()
	d, ok := r.pt.dispatched[math.Float64bits(syncPeak)]
	delete(r.pt.dispatched, math.Float64bits(syncPeak))
	r.pt.mu.Unlock()
	if !ok {
		d = dispatch{frame: -1, spanID: -1}
	}
	rec, err := r.inner.DecodeAt(w, start, syncPeak)
	id := r.worker.exit(r.pt.base+offDecode, wall0, cpu0, d.frame, d.spanID)
	if r.pt.snr {
		wall0, cpu0 := r.worker.enter()
		// Only the cost is wanted: the receiver computes the same
		// estimate inside DecodeAt through its reusable plan.
		_, _ = zigbee.OutOfBandSNREstimate(w[start:])
		r.worker.exit(layerSNR, wall0, cpu0, d.frame, id)
	}
	if err != nil {
		return nil, err
	}
	r.rec = tracedRec{inner: rec, frame: d.frame, decodeID: id, worker: r.worker}
	return &r.rec, nil
}

// tracedRec carries the frame identity and the worker's clock from decode
// to detect. Like the adapters' receptions it is valid until the
// receiver's next DecodeAt.
type tracedRec struct {
	inner    phy.Reception
	frame    int64
	decodeID int64
	worker   *goroutineClock
}

func (r *tracedRec) Payload() []byte { return r.inner.Payload() }

// tracedDet wraps a phy.Detector.
type tracedDet struct {
	inner phy.Detector
	pt    *protoTrace
}

func (d tracedDet) Analyze(rec phy.Reception) (phy.Detection, error) {
	tr, ok := rec.(*tracedRec)
	if !ok {
		return d.inner.Analyze(rec)
	}
	wall0, cpu0 := tr.worker.enter()
	det, err := d.inner.Analyze(tr.inner)
	tr.worker.exit(d.pt.base+offDetect, wall0, cpu0, tr.frame, tr.decodeID)
	return det, err
}

// DetectThreshold forwards phy.DetectTuner.
func (d tracedDet) DetectThreshold() float64 {
	if dt, ok := d.inner.(phy.DetectTuner); ok {
		return dt.DetectThreshold()
	}
	return 0
}

// CloneWithDetectThreshold forwards phy.DetectTuner.
func (d tracedDet) CloneWithDetectThreshold(t float64) (phy.Detector, error) {
	dt, ok := d.inner.(phy.DetectTuner)
	if !ok {
		return nil, fmt.Errorf("perfbench: %T has no detect threshold", d.inner)
	}
	det, err := dt.CloneWithDetectThreshold(t)
	if err != nil {
		return nil, err
	}
	return tracedDet{inner: det, pt: d.pt}, nil
}

// tracedSource wraps the session's stream.Source. It and the scanner's
// receiver calls run on the session's wired scanner goroutine, which
// alone reads and writes samples, lastRead and clock.
type tracedSource struct {
	inner    stream.Source
	clock    *goroutineClock
	samples  int64
	lastRead int64
}

func (s *tracedSource) ReadBlock(dst []complex128) (int, error) {
	wall0, cpu0 := s.clock.enter()
	n, err := s.inner.ReadBlock(dst)
	s.lastRead = s.clock.exit(layerIQRead, wall0, cpu0, -1, -1)
	s.samples += int64(n)
	return n, err
}

// start and finish bracket Fleet.Process on the scanner goroutine, so
// the stream code before the first read and after the last call (the
// drain) counts as scanner self time.
func (s *tracedSource) start() {
	s.clock.last, s.clock.lastWall, s.clock.started = threadCPU(), time.Now(), true
}

func (s *tracedSource) finish() { s.clock.enter() }
