package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"hideseek/internal/emulation"
	"hideseek/internal/iq"
	"hideseek/internal/lora"
	"hideseek/internal/zigbee"
)

// Input synthesis. emulation.Emulate costs about 0.1 s per 100-byte
// frame, so a run never emulates per frame: it synthesizes a small pool
// of distinct waveforms per class and places instances of them with
// fresh noise, gap and SNR. All of it happens in a child process, before
// any clock starts, and the measured program only ever sees the cf32
// files it leaves behind.

// noiseStd is the per-axis standard deviation of the noise floor.
const noiseStd = 0.01

// corruptEvery places one frame with a corrupted header among every
// corruptEvery frames. The receiver must reject such a frame, so it can
// never get a verdict: it gives frame_error_frac a known floor and keeps
// the sync-reject path in every workload.
const corruptEvery = 16

// traffic describes one session's frames.
type traffic struct {
	proto     string
	frames    int // frames per file (closed loop) or per second (open loop)
	segments  int // closed loop: files of `frames` frames each, one per pass (0 = 1)
	lenMin    int // payload bytes
	lenMax    int
	gapMin    int // noise samples after each frame
	gapMax    int
	pool      int // distinct waveforms per class (authentic, emulated, corrupted)
	snrMin    float64
	snrMax    float64
	rateSps   float64 // open loop: paced sample rate
	perSecond bool    // frames scales with the run length
}

// workload is one benchmark workload.
type workload struct {
	name     string
	live     bool // open loop against hideseekd; otherwise closed loop in process
	sessions []traffic
	// latencyRateSps paces a closed loop's latency segments: slow enough
	// that the session runs far below capacity, with a 4096-sample chunk
	// wait of a few milliseconds, as daemon-live has. latencyFrames is
	// how many valid frames each of the latencySegments holds in a 20 s
	// run.
	latencyRateSps float64
	latencyFrames  int
}

var workloads = map[string]workload{
	// Sync over noise dominates: ~5 ms of noise floor between short frames.
	"zigbee-sparse": {name: "zigbee-sparse", latencyRateSps: 1e6, latencyFrames: 116, sessions: []traffic{{
		proto: "zigbee", frames: 128, lenMin: 20, lenMax: 30,
		gapMin: 18000, gapMax: 22000, pool: 16, snrMin: 16, snrMax: 24,
	}}},
	// Decode dominates: back-to-back long frames.
	"zigbee-dense": {name: "zigbee-dense", latencyRateSps: 2e6, latencyFrames: 48, sessions: []traffic{{
		proto: "zigbee", frames: 256, segments: 4, lenMin: 100, lenMax: 127,
		gapMin: 200, gapMax: 600, pool: 16, snrMin: 16, snrMax: 24,
	}}},
	// Two paced sessions against the daemon: ZigBee over HTTP, LoRa
	// (authentic and Wi-Lo) over raw TCP.
	"daemon-live": {name: "daemon-live", live: true, sessions: []traffic{
		{proto: "zigbee", frames: 160, perSecond: true, lenMin: 20, lenMax: 30,
			gapMin: 1000, gapMax: 3000, pool: 16, snrMin: 16, snrMax: 24, rateSps: 1e6},
		{proto: "lora", frames: 16, perSecond: true, lenMin: 8, lenMax: 16,
			gapMin: 4000, gapMax: 12000, pool: 8, snrMin: 16, snrMax: 24, rateSps: 5e5},
	}},
}

// truthFrame is the generator's ground truth for one placed frame.
type truthFrame struct {
	Start   int64  `json:"start"` // first sample of the frame in its session's stream
	End     int64  `json:"end"`   // one past its last sample
	Payload []byte `json:"payload"`
	Attack  bool   `json:"attack"`
	Corrupt bool   `json:"corrupt"`
}

// sessionInput is what synthesis leaves for one session.
type sessionInput struct {
	Proto   string       `json:"proto"`
	File    string       `json:"file"` // cf32 samples
	Samples int64        `json:"samples"`
	RateSps float64      `json:"rate_sps,omitempty"`
	Frames  []truthFrame `json:"frames"`
	// Period is the number of frames after which the stream repeats
	// itself (0: it does not): frame i is a repeat of frame i % Period.
	Period int `json:"period,omitempty"`
}

// inputs is the manifest synthesis writes next to the cf32 files.
type inputs struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Sessions []sessionInput `json:"sessions"`
	// Warmup is a short zigbee capture holding one authentic frame, the
	// first frame every set-up measurement waits for.
	Warmup string `json:"warmup"`
	// Latency holds the closed loops' latency segments: valid frames
	// from the same pool with short gaps, paced one after each pass.
	Latency []sessionInput `json:"latency,omitempty"`
}

// waveform is one pool entry.
type waveform struct {
	samples []complex128
	payload []byte
	attack  bool
	corrupt bool
}

// synthesize renders every input file for (w, seed, seconds) into dir and
// returns the manifest.
func synthesize(w workload, seed int64, seconds int, dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{Workload: w.name, Seed: seed}
	var zbPool []waveform
	for _, t := range w.sessions {
		pool, err := buildPool(rng, t)
		if err != nil {
			return nil, fmt.Errorf("%s pool: %w", t.proto, err)
		}
		if t.proto == "zigbee" {
			zbPool = pool
		}
		n := t.frames
		if t.perSecond {
			// An open-loop session sends a block of 1/latencyRepeats of
			// the run latencyRepeats times over, so each frame's latency
			// is the median of its repeats, as in the closed loops'
			// latency segments.
			n = t.frames * seconds / latencyRepeats
		}
		for seg := 0; seg < max(t.segments, 1); seg++ {
			file := filepath.Join(dir, fmt.Sprintf("%s-%d.cf32", t.proto, seg))
			si, err := placeFrames(rng, t, pool, n, n/corruptEvery, file)
			if err != nil {
				return nil, err
			}
			if t.perSecond {
				if err := repeatSession(si, latencyRepeats); err != nil {
					return nil, err
				}
			}
			in.Sessions = append(in.Sessions, *si)
		}
		if !w.live {
			// The gap before a frame is scanned before its last sample
			// arrives and adds little to its latency; short gaps keep the
			// latency segments small. They hold valid frames only: corrupted
			// ones, and the frames they cost, show in frame_error_frac.
			lt := t
			lt.gapMin, lt.gapMax = min(t.gapMin, 1000), min(t.gapMax, 2000)
			// latencyFrames is sized for 20 s runs; shorter or longer
			// runs scale it, so the latencyRepeats pacings fit in
			// --seconds.
			frames := max(w.latencyFrames*seconds/20, 4)
			for seg := 0; seg < latencySegments; seg++ {
				si, err := placeFrames(rng, lt, pool, frames, 0, filepath.Join(dir, fmt.Sprintf("latency-%d.cf32", seg)))
				if err != nil {
					return nil, err
				}
				in.Latency = append(in.Latency, *si)
			}
		}
	}
	if zbPool == nil {
		return nil, fmt.Errorf("workload %s has no zigbee session for the warm-up frame", w.name)
	}
	in.Warmup = filepath.Join(dir, "warmup.cf32")
	warm := traffic{proto: "zigbee", gapMin: 2000, gapMax: 2000, snrMin: 20, snrMax: 20}
	if _, err := placeSequence(rng, warm, []waveform{zbPool[0]}, in.Warmup, 0); err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(in, "", " ")
	if err != nil {
		return nil, err
	}
	return in, os.WriteFile(filepath.Join(dir, "inputs.json"), b, 0o644)
}

// buildPool synthesizes t.pool authentic, t.pool emulated and t.pool
// header-corrupted waveforms with distinct random payloads, each
// normalized to unit mean power. Entry i of a class carries a payload of
// length lenMin + i*(lenMax-lenMin)/(pool-1): the lengths are the same
// for every seed, so the seed changes the bytes but not the amount of
// work.
func buildPool(rng *rand.Rand, t traffic) ([]waveform, error) {
	em, err := emulation.NewEmulator(emulation.AttackConfig{})
	if err != nil {
		return nil, err
	}
	var pool []waveform
	for i := 0; i < 3*t.pool; i++ {
		n := t.lenMin
		if t.pool > 1 {
			n += (i % t.pool) * (t.lenMax - t.lenMin) / (t.pool - 1)
		}
		payload := make([]byte, n)
		rng.Read(payload)
		wf := waveform{payload: payload, attack: i/t.pool == classEmulated, corrupt: i/t.pool == classCorrupt}
		switch {
		case wf.corrupt:
			wf.samples, err = corruptFrame(t.proto, payload)
		case t.proto == "zigbee":
			wf.samples, err = zigbee.NewTransmitter().TransmitPSDU(payload)
		default:
			wf.samples, err = lora.NewTransmitter().TransmitPayload(payload)
		}
		if err != nil {
			return nil, err
		}
		if wf.attack {
			res, err := em.Emulate(wf.samples)
			if err != nil {
				return nil, err
			}
			wf.samples = res.Emulated4M
		}
		normalize(wf.samples)
		pool = append(pool, wf)
	}
	return pool, nil
}

// Pool classes, in pool order.
const (
	classAuthentic = iota
	classEmulated
	classCorrupt
)

// corruptFrame modulates a frame whose header the receiver must reject:
// a ZigBee SHR whose SFD is off by one bit, or a LoRa header whose
// checksum symbol does not match its length symbol.
func corruptFrame(proto string, payload []byte) ([]complex128, error) {
	if proto == "zigbee" {
		ppdu, err := zigbee.BuildPPDU(payload)
		if err != nil {
			return nil, err
		}
		ppdu[zigbee.PreambleBytes] ^= 0x01
		chips, err := zigbee.SpreadAppend(nil, zigbee.BytesToSymbols(ppdu))
		if err != nil {
			return nil, err
		}
		return zigbee.Modulate(chips)
	}
	var out []complex128
	for i := 0; i < lora.PreambleUpchirps; i++ {
		out = append(out, lora.Upchirp(0)...)
	}
	for i := 0; i < lora.SyncDownchirps; i++ {
		out = append(out, lora.Downchirp()...)
	}
	n := len(payload)
	out = append(out, lora.Upchirp(n)...)
	out = append(out, lora.Upchirp(n^lora.HeaderChecksumMask^0x01)...)
	for _, b := range payload {
		out = append(out, lora.Upchirp(int(b))...)
	}
	return out, nil
}

func normalize(w []complex128) {
	var p float64
	for _, s := range w {
		p += real(s)*real(s) + imag(s)*imag(s)
	}
	g := complex(1/math.Sqrt(p/float64(len(w))), 0)
	for i := range w {
		w[i] *= g
	}
}

// placeFrames lays out n frame instances from pool: corrupt corrupted
// frames, the rest split evenly between authentic and emulated, in
// random order. Each class cycles through its
// pool entries, so every entry is used equally often whatever the seed.
// For a paced session the gaps are scaled so the stream lasts
// n/t.frames seconds at t.rateSps.
func placeFrames(rng *rand.Rand, t traffic, pool []waveform, n, corrupt int, file string) (*sessionInput, error) {
	classes := make([]int, n)
	for i := 0; i < n-corrupt; i++ {
		classes[i] = i % 2 // classAuthentic, classEmulated
	}
	for i := n - corrupt; i < n; i++ {
		classes[i] = classCorrupt
	}
	rng.Shuffle(n, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	seq := make([]waveform, n)
	var used [3]int
	for i, c := range classes {
		seq[i] = pool[c*t.pool+used[c]%t.pool]
		used[c]++
	}
	total := int64(0)
	if t.perSecond {
		// A whole number of the daemon's chunks: every repeat of the
		// block meets the same chunk boundaries, so a frame waits as long
		// for its chunk in every repeat.
		total = int64(float64(n) / float64(t.frames) * t.rateSps)
		total = (total + chunkSize - 1) / chunkSize * chunkSize
	}
	si, err := placeSequence(rng, t, seq, file, total)
	if err != nil {
		return nil, err
	}
	si.RateSps = t.rateSps
	return si, nil
}

// placeSequence writes gap, frame, gap, frame, ..., gap as cf32, with
// every frame scaled to a random SNR over fresh noise. total > 0 rescales
// the gaps so the stream holds exactly total samples.
func placeSequence(rng *rand.Rand, t traffic, seq []waveform, file string, total int64) (*sessionInput, error) {
	gaps := make([]int, len(seq)+1)
	sumGap, sumFrame := 0, 0
	for i := range gaps {
		gaps[i] = t.gapMin + rng.Intn(t.gapMax-t.gapMin+1)
		sumGap += gaps[i]
	}
	for _, w := range seq {
		sumFrame += len(w.samples)
	}
	if total > 0 {
		budget := total - int64(sumFrame)
		if budget < int64(len(gaps)*t.gapMin/2) {
			return nil, fmt.Errorf("%s: %d frames do not fit in %d samples", t.proto, len(seq), total)
		}
		acc := 0
		for i := range gaps {
			gaps[i] = int(int64(gaps[i]) * budget / int64(sumGap))
			acc += gaps[i]
		}
		gaps[len(gaps)-1] += int(budget) - acc
	}
	f, err := os.Create(file)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	si := &sessionInput{Proto: t.proto, File: file}
	var buf []complex128
	noise := func(n int) []complex128 {
		buf = buf[:0]
		for i := 0; i < n; i++ {
			buf = append(buf, complex(rng.NormFloat64()*noiseStd, rng.NormFloat64()*noiseStd))
		}
		return buf
	}
	write := func(s []complex128) error {
		si.Samples += int64(len(s))
		return iq.WriteCF32(bw, s)
	}
	if err := write(noise(gaps[0])); err != nil {
		f.Close()
		return nil, err
	}
	for i, w := range seq {
		snr := t.snrMin + rng.Float64()*(t.snrMax-t.snrMin)
		amp := complex(math.Sqrt(2*noiseStd*noiseStd*math.Pow(10, snr/10)), 0)
		frame := noise(len(w.samples))
		for k, s := range w.samples {
			frame[k] += amp * s
		}
		si.Frames = append(si.Frames, truthFrame{
			Start: si.Samples, End: si.Samples + int64(len(w.samples)),
			Payload: w.payload, Attack: w.attack, Corrupt: w.corrupt,
		})
		if err := write(frame); err != nil {
			f.Close()
			return nil, err
		}
		if err := write(noise(gaps[i+1])); err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return si, nil
}

// repeatSession makes si's stream k copies of itself, back to back.
func repeatSession(si *sessionInput, k int) error {
	block, n := si.Frames, si.Samples
	tmp := si.File + ".rep"
	out, err := os.Create(tmp)
	if err != nil {
		return err
	}
	for r := 0; r < k; r++ {
		if err := appendFile(out, si.File); err != nil {
			out.Close()
			return err
		}
		if r == 0 {
			continue
		}
		for _, f := range block {
			f.Start, f.End = f.Start+int64(r)*n, f.End+int64(r)*n
			si.Frames = append(si.Frames, f)
		}
	}
	if err := out.Close(); err != nil {
		return err
	}
	si.Samples, si.Period = int64(k)*n, len(block)
	return os.Rename(tmp, si.File)
}

func appendFile(w io.Writer, file string) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

// loadInputs reads the manifest synthesis wrote into dir.
func loadInputs(dir string) (*inputs, error) {
	b, err := os.ReadFile(filepath.Join(dir, "inputs.json"))
	if err != nil {
		return nil, err
	}
	var in inputs
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, err
	}
	for _, s := range in.Sessions {
		if !sort.SliceIsSorted(s.Frames, func(i, j int) bool { return s.Frames[i].Start < s.Frames[j].Start }) {
			return nil, fmt.Errorf("%s: ground truth out of order", s.Proto)
		}
	}
	return &in, nil
}
