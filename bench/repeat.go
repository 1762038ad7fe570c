package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchConfig is the part of BENCHMARK.json the benchmark reads: the
// window length, the workloads, and the metric names, units and bounds
// it reports against.
type benchConfig struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one metric's definition; per-layer metrics have no
// bound.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

func loadConfig(path string) (*benchConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cfg benchConfig
	if err := json.Unmarshal(b, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &cfg, nil
}

// summary is one (workload, metric) pair across repeated runs.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Median) }

// runsReport is what -runs writes with -out.
type runsReport struct {
	Host      host                          `json:"host"`
	Runs      int                           `json:"runs"`
	Workloads map[string]map[string]summary `json:"workloads"`
}

// quartiles follows Python's statistics.quantiles(values, n=4), the
// "exclusive" method.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// runsCmd runs this binary o.runs times as child processes with the
// same flags, each writing its results to a file, and prints each
// metric's median and quartiles.
func runsCmd(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(o.work, "runs-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	childArgs := []string{"-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(o.trace),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64), "-config", o.config, "-work", o.work}
	agg := runsReport{Host: stamp(o.seed), Runs: o.runs, Workloads: map[string]map[string]summary{}}
	for i := 0; i < o.runs; i++ {
		out := filepath.Join(dir, fmt.Sprintf("run-%d.json", i))
		cmd := exec.Command(self, append(childArgs, "-out", out)...)
		cmd.Stdout, cmd.Stderr = stderr, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: run %d: %v\n", i, err)
			return 1
		}
		b, err := os.ReadFile(out)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		var rep runReport
		if err := json.Unmarshal(b, &rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		for wname, wr := range rep.Workloads {
			if agg.Workloads[wname] == nil {
				agg.Workloads[wname] = map[string]summary{}
			}
			for mname, m := range wr.Metrics {
				s := agg.Workloads[wname][mname]
				s.Unit = m.Unit
				s.Values = append(s.Values, m.Value)
				agg.Workloads[wname][mname] = s
			}
		}
	}
	for _, ms := range agg.Workloads {
		for name, s := range ms {
			s.Median = quantile(s.Values, 0.5)
			s.Q1, s.Q3 = quartiles(s.Values)
			ms[name] = s
		}
	}
	fmt.Fprintf(stdout, "%-11s %-36s %14s %14s %14s %8s %s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit")
	for _, wname := range sortedKeys(agg.Workloads) {
		for _, mname := range sortedKeys(agg.Workloads[wname]) {
			s := agg.Workloads[wname][mname]
			fmt.Fprintf(stdout, "%-11s %-36s %14.6g %14.6g %14.6g %8.4f %s\n", wname, mname, s.Median, s.Q1, s.Q3, s.spread(), s.Unit)
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, agg); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// compareCmd compares two -runs summaries metric by metric: every
// end-to-end (metric, workload) pair whose medians differ by more than
// the metric's bound is flagged, and the command fails if any is.
func compareCmd(cfg *benchConfig, files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "bench: -compare wants two -runs summary files")
		return 2
	}
	var reps [2]runsReport
	for i, f := range files {
		b, err := os.ReadFile(f)
		if err == nil {
			err = json.Unmarshal(b, &reps[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", f, err)
			return 2
		}
	}
	fmt.Fprintf(stdout, "%-11s %-16s %12s %12s %8s %8s %8s %6s\n", "workload", "metric", "median A", "median B", "diff", "spreadA", "spreadB", "bound")
	flagged := 0
	for _, wname := range sortedKeys(reps[0].Workloads) {
		b, ok := reps[1].Workloads[wname]
		if !ok {
			continue
		}
		for _, spec := range cfg.EndToEnd {
			sa, okA := reps[0].Workloads[wname][spec.Name]
			sb, okB := b[spec.Name]
			if !okA || !okB {
				continue
			}
			diff := (sb.Median - sa.Median) / math.Abs(sa.Median)
			mark := ""
			if math.Abs(diff) > spec.Bound {
				mark = "  FLAG"
				flagged++
			}
			fmt.Fprintf(stdout, "%-11s %-16s %12.6g %12.6g %+8.4f %8.4f %8.4f %6.3f%s\n",
				wname, spec.Name, sa.Median, sb.Median, diff, sa.spread(), sb.spread(), spec.Bound, mark)
		}
	}
	if flagged > 0 {
		fmt.Fprintf(stdout, "%d pair(s) differ by more than their bound\n", flagged)
		return 1
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
