package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"hideseek/internal/stream"
)

// daemon is a running hideseekd, launched as its own process.
type daemon struct {
	cmd      *exec.Cmd
	started  time.Time
	httpAddr string
	tcpAddr  string
	exited   chan struct{}
	log      strings.Builder // stderr, for error reports
	logMu    sync.Mutex
}

// startDaemon launches hideseekd with its default flags plus -tcp, both
// listeners on ephemeral loopback ports, and waits until both listen.
func startDaemon(bin string) (*daemon, error) {
	d := &daemon{cmd: exec.Command(bin, "-addr", "127.0.0.1:0", "-tcp", "127.0.0.1:0"), exited: make(chan struct{})}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stderr)
		signalled := false
		for sc.Scan() {
			line := sc.Text()
			d.logMu.Lock()
			d.log.WriteString(line + "\n")
			if a, ok := strings.CutPrefix(line, "hideseekd: listening on http://"); ok {
				d.httpAddr = a
			}
			if a, ok := strings.CutPrefix(line, "hideseekd: raw tcp on "); ok {
				d.tcpAddr = a
			}
			both := d.httpAddr != "" && d.tcpAddr != ""
			d.logMu.Unlock()
			if both && !signalled {
				signalled = true
				close(ready)
			}
		}
		d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("hideseekd exited before listening: %s", d.stderr())
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, fmt.Errorf("hideseekd did not listen within 20s: %s", d.stderr())
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) stderr() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return d.log.String()
}

// stop shuts the daemon down gracefully (SIGTERM), killing it if it does
// not exit in time, and waits for it.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// daemonSetup is one fresh start: exec until the verdict of the warm-up
// frame, sent over raw TCP, arrives.
func daemonSetup(bin string, warmup []byte) (time.Duration, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return 0, err
	}
	defer d.stop()
	conn, err := net.Dial("tcp", d.tcpAddr)
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := conn.Write(warmup); err != nil {
		return 0, err
	}
	conn.(*net.TCPConn).CloseWrite()
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	took := time.Since(d.started)
	if err != nil {
		return 0, fmt.Errorf("warm-up verdict: %w", err)
	}
	var r wireRecord
	if err := json.Unmarshal(line, &r); err != nil || r.Seq == nil || r.Dropped || r.Err != "" {
		return 0, fmt.Errorf("warm-up frame got no verdict: %s", line)
	}
	return took, nil
}

// wireRecord is one NDJSON line: a verdict (it has "seq") or the trailer.
type wireRecord struct {
	Seq     *uint64       `json:"seq"`
	Offset  int64         `json:"offset"`
	PSDU    []byte        `json:"psdu"`
	Attack  bool          `json:"attack"`
	Dropped bool          `json:"dropped"`
	Err     string        `json:"err"`
	QueueNS int64         `json:"queue_ns"`
	Stats   *stream.Stats `json:"stats"`
	Error   string        `json:"error"`
}

// liveSession is one paced connection's outcome.
type liveSession struct {
	verdicts []verdictRec
	arrivals []time.Time // per verdict
	stats    *stream.Stats
	trailer  time.Time
	sent     sendLog
	err      error
}

// sendBlock is the generator's write size: 1024 samples, about 1 ms at
// the paced rate, like an SDR's USB transfer.
const sendBlock = 1024

// genStallMS is how late the generator itself may be for a block before
// the frames ending in that block are left out of the latency
// percentiles: a stall that long is the shared machine's, and it stalls
// the program too, which taking off the generator's part would not
// undo. Lateness from backpressure — a write held up because the program
// fell behind — never leaves them out.
const genStallMS = 5

// sendLog is the generator's record of every block it sent.
type sendLog struct {
	LagMS []float64 `json:"lag_ms"` // how late each block was sent after its due time
	// StallMS is the part of each block's lag that is the generator's
	// own: a late wake-up, or a late wake-up for an earlier block that
	// it has not caught up on. The part backpressure explains — earlier
	// writes held up because the program fell behind — is not in it.
	StallMS []float64 `json:"stall_ms"`
}

// stall returns the generator's own lateness for the block holding
// sample end-1.
func (l *sendLog) stall(end int64) float64 {
	if k := (end - 1) / sendBlock; k < int64(len(l.StallMS)) {
		return l.StallMS[k]
	}
	return 0
}

// stalled reports whether the generator itself was more than genStallMS
// late for the block holding sample end-1.
func (l *sendLog) stalled(end int64) bool { return l.stall(end) > genStallMS }

// pace copies the pre-encoded cf32 file to w on the schedule sample i is
// due at t0 + i/rate, block by block. A block whose write is held up by
// backpressure makes every later block late; the lag records it, and
// the stall records the generator's own part of the lag: how late it is
// against when it would have been ready had only its writes taken time.
func pace(w io.Writer, file string, rate float64, t0 time.Time, log *sendLog) error {
	f, err := os.Open(file)
	if err != nil {
		return err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	buf := make([]byte, 8*sendBlock)
	sent := 0
	var ready time.Time // when the block would be sent if only writes took time
	for {
		n, err := io.ReadFull(br, buf)
		if n == 0 {
			if err == io.EOF {
				return nil
			}
			return err
		}
		sent += n / 8
		due := t0.Add(samplesDur(int64(sent), rate))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		if due.After(ready) {
			ready = due
		}
		log.LagMS = append(log.LagMS, float64(now.Sub(due).Nanoseconds())/1e6)
		log.StallMS = append(log.StallMS, float64(now.Sub(ready).Nanoseconds())/1e6)
		if _, err := w.Write(buf[:n]); err != nil {
			return err
		}
		ready = ready.Add(time.Since(now))
		if err == io.ErrUnexpectedEOF {
			return nil
		}
	}
}

// samplesDur is how long a source at rate takes to produce n samples.
func samplesDur(n int64, rate float64) time.Duration {
	return time.Duration(float64(n) / rate * 1e9)
}

// frameLatencies returns, per frame, the time from the due time of its
// last sample (t0 + End/rate) to the arrival of its verdict; +Inf when a
// valid frame got no correct verdict, so a lost frame misses every
// latency limit. The generator's own lateness for the frame's last
// block is not the program's and is taken off: its timer and its
// processor on a shared machine, not the program, decide it. Lateness
// from backpressure is never taken off (see sendLog.StallMS).
// Corrupted frames, and frames whose last block the generator itself was
// more than genStallMS late for, read NaN; the latter are counted in
// skipped.
func frameLatencies(frames []truthFrame, verdicts []verdictRec, arrivals []time.Time, matched []int, t0 time.Time, rate float64, log *sendLog) (lat []float64, skipped int) {
	for fi, f := range frames {
		vi := matched[fi]
		switch {
		case f.Corrupt:
			lat = append(lat, math.NaN())
		case vi < 0 || !correctVerdict(f, verdicts[vi]):
			lat = append(lat, math.Inf(1))
		case log.stalled(f.End):
			lat = append(lat, math.NaN())
			skipped++
		default:
			lat = append(lat, float64(arrivals[vi].Sub(t0.Add(samplesDur(f.End, rate))).Nanoseconds())/1e6-log.stall(f.End))
		}
	}
	return lat, skipped
}

// repeats holds each frame's latencies over its repeats, by (session or
// segment, frame).
type repeats map[[2]int][]float64

// add records one pass over a stream's frames; frame i is a repeat of
// frame i % period (period 0: of frame i).
func (r repeats) add(group int, lat []float64, period int) {
	for i, v := range lat {
		if math.IsNaN(v) {
			continue
		}
		k := [2]int{group, i}
		if period > 0 {
			k[1] = i % period
		}
		r[k] = append(r[k], v)
	}
}

// latencies returns one latency per frame: the median of its repeats, a
// hiccup of the shared machine delaying one repeat and a slower program
// all of them; +Inf when any repeat got no correct verdict.
func (r repeats) latencies() []float64 {
	var lat []float64
	for _, xs := range r {
		if slices.Contains(xs, math.Inf(1)) {
			lat = append(lat, math.Inf(1))
		} else {
			lat = append(lat, median(xs))
		}
	}
	return lat
}

// readNDJSON collects verdict lines from c, stamping each with the time
// the kernel received it, until the trailer.
func readNDJSON(r io.Reader, c *stampConn, ls *liveSession) error {
	br := bufio.NewReaderSize(r, 64*1024)
	for {
		line, err := br.ReadBytes('\n')
		at := c.received()
		if len(line) > 0 {
			var rec wireRecord
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				return fmt.Errorf("bad NDJSON line %q: %w", line, jerr)
			}
			if rec.Seq == nil {
				if rec.Error != "" {
					return fmt.Errorf("session error: %s", rec.Error)
				}
				ls.stats, ls.trailer = rec.Stats, at
				return nil
			}
			ls.verdicts = append(ls.verdicts, verdictRec{
				Offset: rec.Offset, Payload: rec.PSDU, Attack: rec.Attack,
				Decided: !rec.Dropped && rec.Err == "", Dropped: rec.Dropped, Err: rec.Err, QueueNS: rec.QueueNS,
			})
			ls.arrivals = append(ls.arrivals, at)
		}
		if err != nil {
			return fmt.Errorf("stream ended without a trailer: %w", err)
		}
	}
}

// streamHTTP runs one session over full-duplex POST /v1/stream.
func streamHTTP(ctx context.Context, addr string, s sessionInput, t0 time.Time, ls *liveSession) error {
	pr, pw := io.Pipe()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/stream?proto="+s.Proto, pr)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	sendErr := make(chan error, 1)
	go func() {
		err := pace(pw, s.File, s.RateSps, t0, &ls.sent)
		pw.CloseWithError(err)
		sendErr <- err
	}()
	var sc *stampConn
	tr := &http.Transport{DisableCompression: true, DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		if sc, err = newStampConn(c.(*net.TCPConn)); err != nil {
			c.Close()
			return nil, err
		}
		return sc, nil
	}}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		pr.CloseWithError(err)
		<-sendErr
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		pr.CloseWithError(io.ErrClosedPipe)
		<-sendErr
		return fmt.Errorf("POST /v1/stream: %s", resp.Status)
	}
	rerr := readNDJSON(resp.Body, sc, ls)
	if err := <-sendErr; err != nil && rerr == nil {
		return err
	}
	return rerr
}

// streamTCP runs one session over raw TCP with a "#HSPROTO" line.
func streamTCP(ctx context.Context, addr string, s sessionInput, t0 time.Time, ls *liveSession) error {
	conn, err := (&net.Dialer{}).DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	sc, err := newStampConn(conn.(*net.TCPConn))
	if err != nil {
		return err
	}
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	defer stop()
	if _, err := io.WriteString(conn, "#HSPROTO "+s.Proto+"\n"); err != nil {
		return err
	}
	sendErr := make(chan error, 1)
	go func() {
		err := pace(conn, s.File, s.RateSps, t0, &ls.sent)
		conn.(*net.TCPConn).CloseWrite()
		sendErr <- err
	}()
	rerr := readNDJSON(sc, sc, ls)
	if err := <-sendErr; err != nil && rerr == nil {
		return err
	}
	return rerr
}

// liveResult is one open-loop run against the daemon.
type liveResult struct {
	sessions  []liveSession
	t0, end   time.Time
	cpu       time.Duration // daemon CPU from the first scheduled sample to the last trailer
	idleCPUMS float64       // daemon CPU per second with no traffic (traced runs)
	peakRSSMB float64
	// latency holds each valid frame's latency over its repeats; frames
	// the generator stalled on are left out and counted in
	// latencySkipped.
	latency        repeats
	latencySkipped int
	out            outcome
	queueNS        []float64
	frames         int64
	samples        int64
}

// runLive starts a fresh daemon, optionally measures its idle CPU, then
// drives the zigbee session over HTTP and the lora session over raw TCP,
// both paced, and checks every verdict against ground truth.
func runLive(bin string, in *inputs, seconds int, idle time.Duration) (*liveResult, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	warm, err := os.ReadFile(in.Warmup)
	if err != nil {
		return nil, err
	}
	if err := classify(d.httpAddr, warm); err != nil {
		return nil, err
	}
	res := &liveResult{sessions: make([]liveSession, len(in.Sessions)), latency: repeats{}}
	if idle > 0 {
		c0, err := procCPU(d.pid())
		if err != nil {
			return nil, err
		}
		time.Sleep(idle)
		c1, err := procCPU(d.pid())
		if err != nil {
			return nil, err
		}
		res.idleCPUMS = float64((c1 - c0).Nanoseconds()) / 1e6 / idle.Seconds()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(seconds)*time.Second+90*time.Second)
	defer cancel()
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return nil, err
	}
	res.t0 = time.Now().Add(50 * time.Millisecond)
	var wg sync.WaitGroup
	for i, s := range in.Sessions {
		wg.Add(1)
		go func(i int, s sessionInput) {
			defer wg.Done()
			ls := &res.sessions[i]
			if s.Proto == "zigbee" {
				ls.err = streamHTTP(ctx, d.httpAddr, s, res.t0, ls)
			} else {
				ls.err = streamTCP(ctx, d.tcpAddr, s, res.t0, ls)
			}
			if ls.err != nil {
				cancel() // one failed session ends the run
			}
		}(i, s)
	}
	wg.Wait()
	cpu1, cerr := procCPU(d.pid())
	rss, rerr := procPeakRSSMB(d.pid())
	for i, ls := range res.sessions {
		if ls.err != nil {
			return nil, fmt.Errorf("%s session: %w (daemon log: %s)", in.Sessions[i].Proto, ls.err, d.stderr())
		}
	}
	if cerr != nil {
		return nil, cerr
	}
	if rerr != nil {
		return nil, rerr
	}
	res.cpu, res.peakRSSMB = cpu1-cpu0, rss
	for i, s := range in.Sessions {
		ls := res.sessions[i]
		if ls.trailer.After(res.end) {
			res.end = ls.trailer
		}
		matched := res.out.addSession(s.Frames, *ls.stats, ls.verdicts)
		res.frames += ls.stats.Frames
		res.samples += ls.stats.Samples
		lat, skipped := frameLatencies(s.Frames, ls.verdicts, ls.arrivals, matched, res.t0, s.RateSps, &ls.sent)
		res.latency.add(i, lat, s.Period)
		res.latencySkipped += skipped
		for _, v := range ls.verdicts {
			res.queueNS = append(res.queueNS, float64(v.QueueNS))
		}
	}
	return res, nil
}

// classify posts a capture to /v1/classify and requires every verdict to
// be decided: it warms the daemon's zigbee path before the paced run.
func classify(addr string, capture []byte) error {
	resp, err := http.Post("http://"+addr+"/v1/classify", "application/octet-stream", bytes.NewReader(capture))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var cr struct {
		Verdicts []wireRecord `json:"verdicts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return fmt.Errorf("classify: %w", err)
	}
	if len(cr.Verdicts) == 0 {
		return fmt.Errorf("classify: warm-up capture got no verdict")
	}
	return nil
}
