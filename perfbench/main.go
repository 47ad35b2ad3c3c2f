// Command perfbench is the frame-path benchmark: it measures cf32 ingest
// → scan → sync → queue → decode → detect → deliver, in process through
// stream.Fleet and against a separately launched hideseekd. See README.md
// for the workloads, the metrics and the run recipe.
//
//	perfbench --workload zigbee-dense --seed 1 --seconds 20 --trace 0
//	perfbench -steady 5 --workload daemon-live --seconds 20
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics (end-to-end metrics with --trace 0, per-layer metrics
// with --trace 1).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hideseek/internal/iq"
	"hideseek/internal/stream"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	daemon   string
}

func main() {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: zigbee-sparse, zigbee-dense or daemon-live")
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root; inputs, builds and traces go under <root>/.bench_build")
	fs.StringVar(&o.daemon, "daemon", "", "hideseekd binary (daemon-live)")
	steady := fs.Int("steady", 0, "steadiness report: run the workload this many times, seeds seed..seed+n-1")
	gen := fs.String("gen", "", "internal: synthesize the inputs into this directory and exit")
	setupProbe := fs.String("setup-probe", "", "internal: time one in-process set-up on this warm-up capture and exit")
	paceFile := fs.String("pace", "", "internal: pace this cf32 file to standard output and exit")
	paceRate := fs.Float64("pace-rate", 0, "internal: -pace sample rate")
	paceT0 := fs.Int64("pace-t0", 0, "internal: -pace start, Unix ns")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var err error
	switch {
	case *gen != "":
		err = genMain(o, *gen)
	case *setupProbe != "":
		err = setupProbeMain(*setupProbe)
	case *paceFile != "":
		err = paceMain(*paceFile, *paceRate, *paceT0)
	case *steady > 0:
		err = steadyMain(o, *steady)
	default:
		err = benchMain(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func (o options) validate() (workload, error) {
	w, ok := workloads[o.workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return w, fmt.Errorf("unknown workload %q (have %v)", o.workload, names)
	}
	if o.seconds < 1 {
		return w, fmt.Errorf("--seconds %d < 1", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return w, fmt.Errorf("--trace must be 0 or 1")
	}
	if w.live && o.daemon == "" {
		return w, fmt.Errorf("%s needs -daemon (run through run.sh)", w.name)
	}
	return w, nil
}

func genMain(o options, dir string) error {
	w, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	_, err := synthesize(w, o.seed, o.seconds, dir)
	return err
}

// selfExec runs this binary with args and returns its standard output.
func selfExec(args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// put records a metric with its declared unit.
func (r *result) put(name string, v float64) { r.Metrics[name] = metric{v, units[name]} }

func benchMain(o options) error {
	w, err := o.validate()
	if err != nil {
		return err
	}
	work := filepath.Join(o.root, ".bench_build", "work", fmt.Sprintf("%s-%d-%d", w.name, o.seed, os.Getpid()))
	defer os.RemoveAll(work)
	// Synthesis runs in a child process so its memory never shows in this
	// process's peak RSS, and before any clock starts.
	if _, err := selfExec("-gen", work, "--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10), "--seconds", strconv.Itoa(o.seconds)); err != nil {
		return fmt.Errorf("input synthesis: %w", err)
	}
	in, err := loadInputs(work)
	if err != nil {
		return err
	}
	total0, steal0 := hostCPU()
	var res *result
	if w.live {
		res, err = runLiveWorkload(o, in)
	} else {
		res, err = runClosedWorkload(o, w, in)
	}
	if err != nil {
		return err
	}
	// Wall-clock figures move with how much of the machine the hypervisor
	// gave to others; CPU times do not. Noted for reading the figures.
	if total1, steal1 := hostCPU(); total1 > total0 {
		fmt.Fprintf(os.Stderr, "host: %.1f%% of processor time stolen during the run\n", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	printResult(os.Stdout, w.name, o, res)
	return nil
}

// Set-up time is the median over fresh starts. A run keeps starting the
// program afresh until that median is pinned down to a tenth: the
// distribution-free 95% confidence interval of the median must be no
// wider than setupSettled of it. The spread of the single starts does
// not shrink with more of them; the uncertainty of their median does.
const (
	setupMinStarts = 11
	setupMaxStarts = 61
	setupSettled   = 0.1
	// startsPerPass is how many fresh starts a closed loop makes after
	// each throughput pass: with twenty passes in a run, enough that the
	// median settles inside the measured stretch and is not topped up by
	// starts made after it, on an idler machine.
	startsPerPass = 3
	// daemonStartPause comes before every fresh daemon start. Back to
	// back, the starts all fell in about two seconds, so each run sampled
	// the shared machine over those two seconds only, and the medians of
	// runs spread 0.26–0.29; spaced out they spread 0.13–0.17. A start
	// after a pause also begins, as a real one does, on an idle machine.
	daemonStartPause = 150 * time.Millisecond
)

// settle adds samples from start to xs until their median has settled,
// or there are setupMaxStarts, and returns that median. A median that
// did not settle is reported on standard error.
func settle(what string, xs []float64, start func() (float64, error)) (float64, error) {
	for {
		if len(xs) >= setupMinStarts {
			if lo, hi := medianCI(xs); hi-lo <= setupSettled*median(xs) {
				return median(xs), nil
			}
		}
		if len(xs) >= setupMaxStarts {
			break
		}
		v, err := start()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", what, err)
		}
		xs = append(xs, v)
	}
	lo, hi := medianCI(xs)
	fmt.Fprintf(os.Stderr, "setup_s: NOT SETTLED: %s median %.6g s, 95%% interval %.6g..%.6g after %d starts\n", what, median(xs), lo, hi, len(xs))
	return median(xs), nil
}

// setupProbeMain is one fresh in-process start: phy.Build +
// stream.NewFleet + the first warm-up frame's verdict. Reading the
// warm-up capture happens before the clock starts.
func setupProbeMain(warmupFile string) error {
	capture, err := os.ReadFile(warmupFile)
	if err != nil {
		return err
	}
	t0 := time.Now()
	pipes, err := buildPipelines([]string{"zigbee"})
	if err != nil {
		return err
	}
	fleet, err := newFleet(pipes)
	if err != nil {
		return err
	}
	var first time.Duration
	_, err = fleet.Process(context.Background(), iq.NewReaderCF32(bytes.NewReader(capture)), func(v stream.Verdict) {
		if first == 0 && v.Decided() {
			first = time.Since(t0)
		}
	})
	fleet.Close()
	if err != nil {
		return err
	}
	if first == 0 {
		return fmt.Errorf("warm-up frame got no verdict")
	}
	fmt.Println(first.Seconds())
	return nil
}

// inProcessStart is one fresh in-process start, in a child process.
func inProcessStart(in *inputs) func() (float64, error) {
	return func() (float64, error) {
		out, err := selfExec("-setup-probe", in.Warmup)
		if err != nil {
			return 0, err
		}
		return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	}
}

// daemonStart is one fresh daemon start: exec until the warm-up frame's
// verdict.
func daemonStart(bin string, warm []byte) func() (float64, error) {
	return func() (float64, error) {
		d, err := daemonSetup(bin, warm)
		return d.Seconds(), err
	}
}

func runClosedWorkload(o options, w workload, in *inputs) (*result, error) {
	ctx := context.Background()
	res := &result{Metrics: map[string]metric{}}
	if o.trace == 1 {
		return res, tracedClosed(ctx, o, in, res)
	}
	pipes, err := buildPipelines(protosOf(in))
	if err != nil {
		return nil, err
	}
	fleet, err := newFleet(pipes)
	if err != nil {
		return nil, err
	}
	defer fleet.Close()
	// One unmeasured pass fills the page cache and the pipeline's pools.
	if _, err := runPass(ctx, fleet, in.Sessions, nil); err != nil {
		return nil, err
	}
	// After each pass the program is started afresh startsPerPass times
	// and one latency segment is paced through the fleet, so set-up,
	// throughput and latency are sampled over the same stretch of the
	// machine's time.
	start := inProcessStart(in)
	var starts []float64
	reps := repeats{}
	var latOut outcome
	skipped := 0
	paced := 0
	between := func() (bool, error) {
		for i := 0; i < startsPerPass; i++ {
			v, err := start()
			if err != nil {
				return false, err
			}
			starts = append(starts, v)
		}
		seg := paced % len(in.Latency)
		paced++
		// The pass's garbage is collected off the latency segment's clock.
		runtime.GC()
		l, sk, out, err := runPaced(ctx, fleet, in.Latency[seg], w.latencyRateSps)
		if err != nil {
			return false, err
		}
		reps.add(seg, l, 0)
		skipped += sk
		latOut.tally.add(out.tally)
		latOut.unaccounted += out.unaccounted
		return paced < latencyRepeats*len(in.Latency), nil
	}
	ph, err := runPhase(ctx, fleet, in, false, nil, nil, time.Duration(o.seconds)*time.Second, between)
	if err != nil {
		return nil, err
	}
	lat := reps.latencies()
	reportSkipped(skipped, len(lat))
	setup, err := settle("in-process set-up", starts, start)
	if err != nil {
		return nil, err
	}
	// Throughput, CPU per frame and peak RSS are medians over passes.
	var msps, cpf, rss []float64
	for _, p := range ph.passes {
		msps = append(msps, float64(p.samples())/p.wall.Seconds()/1e6)
		cpf = append(cpf, float64(p.cpu.Nanoseconds())/1e6/float64(p.frames()))
		rss = append(rss, p.peakRSSMB)
	}
	out := ph.out
	out.tally.add(latOut.tally)
	out.unaccounted += latOut.unaccounted
	fillOutcome(res, out)
	res.put("setup_s", setup)
	res.put("msamples_per_s", median(msps))
	res.put("cpu_ms_per_frame", median(cpf))
	res.put("verdict_p50_ms", percentile(lat, 50))
	res.put("verdict_p99_ms", percentile(lat, 99))
	res.put("peak_rss_mb", median(rss))
	res.put("frame_error_frac", frac(ph.cycle.tally.noVerdict, ph.cycle.tally.attempted))
	return res, nil
}

func fillOutcome(res *result, out outcome) {
	res.Attempted = out.tally.attempted
	res.Failed = out.tally.failed
	res.Correct = out.unaccounted == 0 && out.tally.wrong() == 0 && out.tally.attempted > 0
	res.put("stream.unaccounted_frames", float64(out.unaccounted))
}

// reportSkipped notes on standard error how many frames were left out of
// the latency percentiles because the generator stalled on them.
func reportSkipped(skipped, timed int) {
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "latency: %d frame pacings left out (the generator itself more than %d ms late); %d frames timed\n", skipped, genStallMS, timed)
	}
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func runLiveWorkload(o options, in *inputs) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	if o.trace == 1 {
		return res, tracedLive(o, in, res)
	}
	// This process only generates load here: one processor is plenty for
	// it, and it leaves the other to the daemon instead of spinning
	// threads on it. The daemon keeps its own default.
	runtime.GOMAXPROCS(1)
	// Every fresh daemon starts before the paced run: after 20 s of load
	// the same starts ran about a quarter slower on the shared machine,
	// and a median over both sides would depend on how many fell on each.
	warm, err := os.ReadFile(in.Warmup)
	if err != nil {
		return nil, err
	}
	start := daemonStart(o.daemon, warm)
	setup, err := settle("daemon set-up", nil, func() (float64, error) {
		time.Sleep(daemonStartPause)
		return start()
	})
	if err != nil {
		return nil, err
	}
	lr, err := runLive(o.daemon, in, o.seconds, 0)
	if err != nil {
		return nil, err
	}
	fillOutcome(res, lr.out)
	res.put("setup_s", setup)
	res.put("msamples_per_s", float64(lr.samples)/lr.end.Sub(lr.t0).Seconds()/1e6)
	res.put("cpu_ms_per_frame", float64(lr.cpu.Nanoseconds())/1e6/float64(lr.frames))
	lat := lr.latency.latencies()
	// Each session's own percentiles, for reading the combined ones: the
	// LoRa frames, a tenth of the total, hold the combined p99.
	for i, s := range in.Sessions {
		g := repeats{}
		for k, v := range lr.latency {
			if k[0] == i {
				g[k] = v
			}
		}
		gl := g.latencies()
		fmt.Fprintf(os.Stderr, "latency %s: %d frames, p50 %.3f ms, p90 %.3f ms, p99 %.3f ms\n", s.Proto, len(gl), percentile(gl, 50), percentile(gl, 90), percentile(gl, 99))
	}
	res.put("verdict_p50_ms", percentile(lat, 50))
	res.put("verdict_p99_ms", percentile(lat, 99))
	reportSkipped(lr.latencySkipped, len(lat))
	res.put("peak_rss_mb", lr.peakRSSMB)
	res.put("frame_error_frac", frac(lr.out.tally.noVerdict, lr.out.tally.attempted))
	return res, nil
}

// printResult writes a human-readable table, then the JSON result as the
// last line. Metrics not in the run's set (end-to-end with --trace 0,
// per-layer with --trace 1) are dropped from the JSON.
func printResult(w io.Writer, name string, o options, res *result) {
	want := endToEnd
	if o.trace == 1 {
		want = perLayer
	}
	out := *res
	out.Metrics = map[string]metric{}
	for _, m := range want {
		v, ok := res.Metrics[m]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			// Absent: the layer does not run on this workload. A non-finite
			// value means a frame never got a verdict; the run is wrong.
			if ok {
				out.Correct = false
			}
			v = metric{0, units[m]}
		}
		out.Metrics[m] = v
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %d\n", name, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "correct %v  attempted %d  failed %d\n", out.Correct, out.Attempted, out.Failed)
	for _, m := range want {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m, out.Metrics[m].Value, out.Metrics[m].Unit)
	}
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}

// The metric sets, as declared in BENCHMARK.json.
var endToEnd = []string{
	"setup_s", "msamples_per_s", "cpu_ms_per_frame", "verdict_p50_ms", "verdict_p99_ms", "peak_rss_mb", "frame_error_frac",
}

var perLayer = []string{
	"zigbee.sync_ms_per_frame", "zigbee.sync_samples_per_input", "zigbee.sync_reject_frac",
	"zigbee.frame_span_ms_per_frame", "zigbee.decode_ms_per_frame", "zigbee.snr_ms_per_frame",
	"emulation.detect_ms_per_frame",
	"lora.sync_ms_per_frame", "lora.sync_samples_per_input", "lora.decode_ms_per_frame", "lora.detect_ms_per_frame",
	"stream.self_ms_per_frame", "stream.queue_wait_ms_p50", "stream.queue_wait_ms_p99", "stream.unaccounted_frames",
	"iq.read_ms_per_msample",
	"hideseekd.overhead_ms_per_frame", "hideseekd.idle_cpu_ms_per_s",
	"go.alloc_bytes_per_frame", "go.allocs_per_frame", "go.gc_cpu_frac",
	"gen.send_lag_p99_ms",
	"ledger.unattributed_frac", "trace.overhead_frac",
}

var units = map[string]string{
	"setup_s": "s", "msamples_per_s": "MS/s", "cpu_ms_per_frame": "ms", "verdict_p50_ms": "ms", "verdict_p99_ms": "ms",
	"peak_rss_mb": "MB", "frame_error_frac": "fraction",
	"zigbee.sync_ms_per_frame": "ms", "zigbee.sync_samples_per_input": "ratio", "zigbee.sync_reject_frac": "fraction",
	"zigbee.frame_span_ms_per_frame": "ms", "zigbee.decode_ms_per_frame": "ms", "zigbee.snr_ms_per_frame": "ms",
	"emulation.detect_ms_per_frame": "ms",
	"lora.sync_ms_per_frame":        "ms", "lora.sync_samples_per_input": "ratio", "lora.decode_ms_per_frame": "ms", "lora.detect_ms_per_frame": "ms",
	"stream.self_ms_per_frame": "ms", "stream.queue_wait_ms_p50": "ms", "stream.queue_wait_ms_p99": "ms", "stream.unaccounted_frames": "count",
	"iq.read_ms_per_msample":          "ms",
	"hideseekd.overhead_ms_per_frame": "ms", "hideseekd.idle_cpu_ms_per_s": "ms/s",
	"go.alloc_bytes_per_frame": "bytes", "go.allocs_per_frame": "count", "go.gc_cpu_frac": "fraction",
	"gen.send_lag_p99_ms":      "ms",
	"ledger.unattributed_frac": "fraction", "trace.overhead_frac": "fraction",
}
