package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"hideseek/internal/phy"
	"hideseek/internal/stream"
)

// The traced run gives the per-layer numbers. It runs an untraced phase
// and then a traced phase over the same inputs, on fleets built alike;
// the untraced phase gives the runtime counts and the baseline for the
// tracing overhead, the traced phase the per-layer busy time.
//
// Ledger: the traced phase's CPU time as the OS counts it (getrusage) is
// split into the wrapped calls (iq read, sync, frame span, decode,
// detect, the benchmark's SNR probe and consumer), stream.self (thread
// CPU of the scanner and the workers between wrapped calls: window
// bookkeeping, copy-out, queue, reorder and obs), and background GC.
// ledger.unattributed_frac is the share no layer accounts for: the
// delivery goroutine's own bookkeeping, runtime threads, and the
// benchmark's own pass loop.

// tracedFleet builds a fleet whose pipelines are wrapped for tracing.
func tracedFleet(protos []string, rec *recorder) (*stream.Fleet, map[string]*protoTrace, error) {
	pipes, err := buildPipelines(protos)
	if err != nil {
		return nil, nil, err
	}
	traces := map[string]*protoTrace{}
	wrapped := make([]*phy.Pipeline, len(pipes))
	for i, p := range pipes {
		wrapped[i], traces[p.Protocol] = wrapPipeline(p, rec)
	}
	fleet, err := newFleet(wrapped)
	return fleet, traces, err
}

// tracedPhases runs the untraced and then the traced phase, each for at
// least phaseDur (one pass when 0). A closed loop gets one warm-up pass
// per fleet first; the daemon-live replay streams each input once per
// phase. The spans go to spansPath.
func tracedPhases(ctx context.Context, in *inputs, live bool, phaseDur time.Duration, spansPath string) (u, tr *phaseResult, err error) {
	warm := !live
	protos := protosOf(in)
	pipes, err := buildPipelines(protos)
	if err != nil {
		return nil, nil, err
	}
	fleet, err := newFleet(pipes)
	if err != nil {
		return nil, nil, err
	}
	if warm {
		if _, err := runPass(ctx, fleet, in.Sessions, nil); err != nil {
			fleet.Close()
			return nil, nil, err
		}
	}
	u, err = runPhase(ctx, fleet, in, live, nil, nil, phaseDur, nil)
	fleet.Close()
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	tfleet, traces, err := tracedFleet(protos, rec)
	if err != nil {
		return nil, nil, err
	}
	defer tfleet.Close()
	if warm {
		if _, err := runPass(ctx, tfleet, in.Sessions, traces); err != nil {
			return nil, nil, err
		}
	}
	tr, err = runPhase(ctx, tfleet, in, live, traces, rec, phaseDur, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, nil, err
	}
	return u, tr, rec.writeTSV(spansPath)
}

func spansPath(o options) string {
	return filepath.Join(o.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.spans.tsv", o.workload, o.seed))
}

func tracedClosed(ctx context.Context, o options, in *inputs, res *result) error {
	half := time.Duration(o.seconds) * time.Second / 2
	u, tr, err := tracedPhases(ctx, in, false, half, spansPath(o))
	if err != nil {
		return err
	}
	out := u.out
	out.tally.add(tr.out.tally)
	out.unaccounted += tr.out.unaccounted
	fillOutcome(res, out)
	fillLayers(res, u, tr)
	var q []float64
	for _, p := range u.passes {
		for _, r := range p.runs {
			for _, v := range r.verdicts {
				q = append(q, float64(v.QueueNS))
			}
		}
	}
	fillQueueWait(res, q)
	return nil
}

// tracedLive runs the daemon live (for its CPU per frame, idle CPU and
// the generator's lag), then replays the same two streams in process
// with the daemon's defaults, untraced and traced, for the layers.
func tracedLive(o options, in *inputs, res *result) error {
	lr, err := runLive(o.daemon, in, o.seconds, 2*time.Second)
	if err != nil {
		return err
	}
	u, tr, err := tracedPhases(context.Background(), in, true, 0, spansPath(o))
	if err != nil {
		return err
	}
	out := lr.out
	out.tally.add(u.out.tally)
	out.tally.add(tr.out.tally)
	out.unaccounted += u.out.unaccounted + tr.out.unaccounted
	fillOutcome(res, out)
	fillLayers(res, u, tr)
	fillQueueWait(res, lr.queueNS)
	daemonPerFrame := float64(lr.cpu.Nanoseconds()) / 1e6 / float64(lr.frames)
	res.put("hideseekd.overhead_ms_per_frame", daemonPerFrame-msPerFrame(u.cpu, u.frames()))
	res.put("hideseekd.idle_cpu_ms_per_s", lr.idleCPUMS)
	var lags []float64
	for _, s := range lr.sessions {
		lags = append(lags, s.sent.LagMS...)
	}
	res.put("gen.send_lag_p99_ms", percentile(lags, 99))
	return nil
}

func msPerFrame(d time.Duration, frames int64) float64 {
	return float64(d.Nanoseconds()) / 1e6 / float64(frames)
}

func fillQueueWait(res *result, queueNS []float64) {
	res.put("stream.queue_wait_ms_p50", percentile(queueNS, 50)/1e6)
	res.put("stream.queue_wait_ms_p99", percentile(queueNS, 99)/1e6)
}

// fillLayers derives the per-layer metrics from an untraced phase u and a
// traced phase tr over the same inputs.
func fillLayers(res *result, u, tr *phaseResult) {
	put := res.put
	for _, proto := range []string{"zigbee", "lora"} {
		frames, samples, rejects := tr.protoStats(proto)
		if frames == 0 {
			continue
		}
		base := protoBase(proto)
		ms := func(layer int) float64 { return float64(tr.busy[layer]) / 1e6 / float64(frames) }
		put(proto+".sync_ms_per_frame", ms(base+offSync))
		put(proto+".sync_samples_per_input", tr.syncInputs[proto]/float64(samples))
		put(proto+".decode_ms_per_frame", ms(base+offDecode))
		if proto == "zigbee" {
			put("zigbee.sync_reject_frac", frac(rejects, rejects+frames))
			put("zigbee.frame_span_ms_per_frame", ms(base+offSpan))
			put("zigbee.snr_ms_per_frame", ms(layerSNR))
			put("emulation.detect_ms_per_frame", ms(base+offDetect))
		} else {
			put("lora.detect_ms_per_frame", ms(base+offDetect))
		}
	}
	frames := tr.frames()
	var spans, samples int64
	for _, b := range tr.busy {
		spans += b
	}
	for _, p := range tr.passes {
		samples += p.samples()
	}
	self := tr.busy[layerSelfScan] + tr.busy[layerSelfWorker]
	put("stream.self_ms_per_frame", float64(self)/1e6/float64(frames))
	put("iq.read_ms_per_msample", float64(tr.busy[layerIQRead])/1e6/(float64(samples)/1e6))
	// Background GC: GC CPU not paid as an assist inside some goroutine's
	// call (assists already sit in the thread clocks).
	bgGC := (tr.gs.cpuGC + tr.gs.cpuScavenge - tr.gs.cpuAssist) * 1e9
	cpuNS := float64(tr.phaseCPU.Nanoseconds())
	put("ledger.unattributed_frac", (cpuNS-float64(spans)-bgGC)/cpuNS)
	traced := (float64(tr.cpu.Nanoseconds()) - float64(tr.busy[layerSNR])) / 1e6 / float64(frames)
	plain := msPerFrame(u.cpu, u.frames())
	put("trace.overhead_frac", (traced-plain)/plain)
	uf := float64(u.frames())
	put("go.alloc_bytes_per_frame", u.gs.allocBytes/uf)
	put("go.allocs_per_frame", u.gs.allocObjects/uf)
	put("go.gc_cpu_frac", u.gs.cpuGC/(u.gs.cpuTotal-u.gs.cpuIdle))
}
