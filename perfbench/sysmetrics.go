package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuSelf returns this process's user+sys CPU time.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSSelfMB returns this process's peak resident set size.
func peakRSSSelfMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// procCPU returns the on-CPU time of every thread of pid, from the
// scheduler's nanosecond accounting.
func procCPU(pid int) (time.Duration, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("schedstat of pid %d: %v", pid, err)
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // thread exited between the glob and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		total += ns
	}
	return time.Duration(total), nil
}

// hostCPU returns the machine's total and stolen CPU time so far, in
// clock ticks, from the first line of /proc/stat. Steal is time a
// virtual processor was ready to run but the hypervisor ran something
// else.
func hostCPU() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// resetPeakRSS resets this process's VmHWM to its current RSS, so the
// next procPeakRSSMB(os.Getpid()) reads the peak since the reset.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// procPeakRSSMB returns VmHWM of pid.
func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// goStats are the runtime/metrics counters the per-layer ledger uses.
type goStats struct {
	allocBytes, allocObjects float64
	cpuTotal, cpuIdle, cpuGC float64 // seconds
	cpuUser, cpuScavenge     float64
	cpuAssist                float64 // GC and scavenger work done by allocating goroutines
}

var goStatNames = []string{
	"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects",
	"/cpu/classes/total:cpu-seconds", "/cpu/classes/idle:cpu-seconds", "/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds", "/cpu/classes/scavenge/total:cpu-seconds",
	"/cpu/classes/gc/mark/assist:cpu-seconds", "/cpu/classes/scavenge/assist:cpu-seconds",
}

// readGoStats forces a GC first: the runtime refreshes its CPU classes
// only at the end of a GC cycle, so without one they could be a whole
// cycle stale.
func readGoStats() goStats {
	runtime.GC()
	s := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goStats{
		allocBytes: v(0), allocObjects: v(1),
		cpuTotal: v(2), cpuIdle: v(3), cpuGC: v(4), cpuUser: v(5), cpuScavenge: v(6),
		cpuAssist: v(7) + v(8),
	}
}

func (a goStats) sub(b goStats) goStats {
	return goStats{
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		cpuTotal: a.cpuTotal - b.cpuTotal, cpuIdle: a.cpuIdle - b.cpuIdle, cpuGC: a.cpuGC - b.cpuGC,
		cpuUser: a.cpuUser - b.cpuUser, cpuScavenge: a.cpuScavenge - b.cpuScavenge,
		cpuAssist: a.cpuAssist - b.cpuAssist,
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianCI returns the distribution-free 95% confidence interval of the
// median of xs: the order statistics of ranks n/2 - 0.98*sqrt(n) and
// 1 + n/2 + 0.98*sqrt(n), rounded outward.
func medianCI(xs []float64) (lo, hi float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	h := 0.98 * math.Sqrt(float64(n))
	j := max(int(math.Floor(float64(n)/2-h)), 1)
	k := min(int(math.Ceil(1+float64(n)/2+h)), n)
	return s[j-1], s[k-1]
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), which is how the spread of a metric is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
