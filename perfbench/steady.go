package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// steadyMain is the steadiness report: it runs the workload n times with
// seeds seed..seed+n-1 and prints, per metric, the median, the quartiles
// (as Python's statistics.quantiles(xs, n=4) gives them), and the spread
// (q3-q1)/median against a third of the metric's bound in BENCHMARK.json.
func steadyMain(o options, n int) error {
	if _, err := o.validate(); err != nil {
		return err
	}
	bounds := readBounds(filepath.Join(o.root, "BENCHMARK.json"))
	values := map[string][]float64{}
	units := map[string]string{}
	allCorrect := true
	for i := 0; i < n; i++ {
		seed := o.seed + int64(i)
		out, err := selfExec("--workload", o.workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace", strconv.Itoa(o.trace),
			"-root", o.root, "-daemon", o.daemon)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("seed %d: last line is not a result: %w", seed, err)
		}
		allCorrect = allCorrect && r.Correct
		fmt.Fprintf(os.Stderr, "seed %d: correct=%v attempted=%d failed=%d\n", seed, r.Correct, r.Attempted, r.Failed)
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("workload %s  runs %d  seconds %d  trace %d  all correct %v\n", o.workload, n, o.seconds, o.trace, allCorrect)
	fmt.Printf("%-34s %12s %12s %12s %9s %9s  %s\n", "metric", "median", "q1", "q3", "spread", "bound/3", "unit")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		flag, lim := "", "-"
		if b, ok := bounds[name]; ok {
			lim = fmt.Sprintf("%.4f", b/3)
			if spread > b/3 {
				flag = "  UNSTEADY"
			}
		}
		fmt.Printf("%-34s %12.6g %12.6g %12.6g %9.4f %9s  %s%s\n", name, med, q1, q3, spread, lim, units[name], flag)
	}
	return nil
}

// readBounds returns each end-to-end metric's bound from BENCHMARK.json
// (none when the file is absent).
func readBounds(path string) map[string]float64 {
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	out := map[string]float64{}
	b, err := os.ReadFile(path)
	if err != nil || json.Unmarshal(b, &spec) != nil {
		return out
	}
	for _, m := range spec.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out
}
