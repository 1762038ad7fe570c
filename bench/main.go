// Command bench is radloc's end-to-end benchmark. For each workload it
// builds a crash image through a warm-up node's write pipeline, boots
// an in-process node.New on a copy of it behind a real loopback HTTP
// listener, drives it only through its public surfaces — the
// transport client, GET /snapshot and /statez, and the Config.FS and
// Config.Metrics seams — and checks the final estimates bit for bit
// against a reference fusion.Engine fed the same batches.
//
// Run it from the repository root through bench/run.sh, which builds
// it inside the checkout:
//
//	bash bench/run.sh -workload field-a -seed 1 -seconds 10 -trace 0
//
// Every metric prints as "workload metric value unit"; the last line
// is a JSON summary. -trace 1 adds the tracing wrappers and reports the
// per-layer metrics instead; -runs N and -compare a.json b.json measure
// repeatability. See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	scale    float64
	spans    string
	out      string
	config   string
	work     string
	runs     int
	compare  bool
}

func parseFlags(args []string, stderr io.Writer) (options, []string, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured window per workload in seconds (0 = BENCHMARK.json run_seconds)")
	fs.IntVar(&o.trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "multiplies the window, the crash image and the setup repetitions (smoke tests use 0.02)")
	fs.StringVar(&o.spans, "spans", "", "traced runs: write the spans to this JSON file")
	fs.StringVar(&o.out, "out", "", "write the run's results (or with -runs, their summary) to this JSON file")
	fs.StringVar(&o.config, "config", "BENCHMARK.json", "benchmark definition: metric names, units and bounds")
	fs.StringVar(&o.work, "work", ".bench_build/work", "working directory for crash images and WAL copies")
	fs.IntVar(&o.runs, "runs", 0, "run N times in child processes and print each metric's median and quartiles")
	fs.BoolVar(&o.compare, "compare", false, "compare two -runs summaries: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return o, nil, err
	}
	if o.trace != 0 && o.trace != 1 {
		return o, nil, fmt.Errorf("-trace must be 0 or 1")
	}
	if o.scale <= 0 {
		return o, nil, fmt.Errorf("-scale must be positive")
	}
	return o, fs.Args(), nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, rest, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg, err := loadConfig(o.config)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.seconds == 0 {
		o.seconds = float64(cfg.RunSeconds)
	}
	switch {
	case o.compare:
		return compareCmd(cfg, rest, stdout, stderr)
	case o.runs > 0:
		return runsCmd(o, stdout, stderr)
	}
	ws := workloads
	if o.workload != "all" {
		w, err := findWorkload(o.workload)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	work := filepath.Join(o.work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	h := stamp(o.seed)
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d\n", h.NProc, h.GOMAXPROCS, h.Go, h.Commit, h.Seed)
	report := runReport{Host: h, Trace: o.trace, Workloads: map[string]*workloadResult{}}
	code := 0
	for _, w := range ws {
		r, err := runWorkload(w, o, filepath.Join(work, w.name))
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		report.Workloads[w.name] = r
		fmt.Fprintf(stderr, "# %s phases: image %.1fs, passes %.1fs, check %.1fs\n", w.name, r.Phases["image"], r.Phases["passes"], r.Phases["check"])
		if err := r.print(stdout, stderr, w.name, cfg, o.trace); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if !r.Correct {
			code = 1
		}
		if o.spans != "" && r.spans != nil {
			path := o.spans
			if len(ws) > 1 {
				path = fmt.Sprintf("%s-%s.json", path[:len(path)-len(filepath.Ext(path))], w.name)
			}
			if err := writeJSON(path, r.spans); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return 1
			}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, report); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// host stamps every output with what the numbers depend on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func stamp(seed uint64) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: "unknown", Seed: seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				h.Commit += "+dirty"
			}
		}
	}
	return h
}

// runReport is what -out writes for one invocation.
type runReport struct {
	Host      host                       `json:"host"`
	Trace     int                        `json:"trace"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult is one workload's outcome.
type workloadResult struct {
	// Metrics holds every number the run printed.
	Metrics    metricSet `json:"metrics"`
	Correct    bool      `json:"correct"`
	Valid      bool      `json:"valid"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Mismatches []string  `json:"mismatches,omitempty"`
	// Phases is the wall time of the run's phases in seconds: building
	// the crash image, the measured pass(es), and the correctness gate.
	Phases map[string]float64 `json:"phases"`
	spans  []span
}

// maxGenLate is the generator lateness (p90) past which an open-loop
// run does not measure the schedule it claims to, and is invalid.
const maxGenLate = 5.0 // ms

// setupBoots is the number of timed boots on each side of the window.
// setup_s is the median of all of them: one boot varies by 10–20% on a
// shared 2-vCPU host, so a single boot would not repeat.
const setupBoots = 5

// backlogLimit is how late the last scheduled write of an open loop may
// be acknowledged before the run counts as a growing backlog.
const backlogLimit = time.Second

// runWorkload builds the crash image, measures one pass (two when
// traced: untraced first, for the overhead baseline), and checks the
// traced-or-only pass's outputs.
func runWorkload(w *workload, o options, dir string) (*workloadResult, error) {
	phases := map[string]float64{}
	lap := func(name string, t0 time.Time) { phases[name] = time.Since(t0).Seconds() }
	t0 := time.Now()
	sc := w.scenario()
	window := time.Duration(o.seconds * o.scale * float64(time.Second))
	warm, warmCap, measured := w.sizes(sc, window.Seconds(), o.scale)
	streams := w.generate(sc, o.seed, warmCap+measured)
	image := filepath.Join(dir, "image")
	suffix := uint64(math.Round(checkpointEvery / 2 * o.scale))
	took, err := buildImage(w, sc, o.seed, streams, warm, warmCap, suffix, image)
	if err != nil {
		return nil, fmt.Errorf("crash image: %w", err)
	}
	lap("image", t0)
	t0 = time.Now()
	pc := passConfig{w: w, sc: sc, seed: o.seed, image: image, work: filepath.Join(dir, "pass"),
		streams: streams, warm: took, window: window, boots: max(1, int(math.Round(setupBoots*o.scale)))}
	var base *passResult
	if o.trace == 1 {
		if base, err = pc.run(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(pc.work); err != nil {
			return nil, err
		}
		// setup_s comes from the untraced pass; the traced one skips the
		// timed boots.
		pc.traced, pc.work, pc.boots = true, filepath.Join(dir, "traced"), 0
	}
	res, err := pc.run()
	if err != nil {
		return nil, err
	}
	lap("passes", t0)

	r := &workloadResult{Phases: phases}
	oc := res.outcome()
	r.Attempted, r.Failed = oc.attempted, oc.failed
	if base != nil {
		r.Metrics = base.endToEnd(len(sc.Sensors))
		for k, v := range res.layers() {
			r.Metrics[k] = v
		}
		untraced := r.Metrics["e2e.ack_p50_ms"].Value
		r.Metrics.set("bench.trace_overhead_frac", (res.endToEnd(len(sc.Sensors))["e2e.ack_p50_ms"].Value-untraced)/untraced, "ratio")
		spans := res.tr.between(0, math.MaxInt64)
		link(spans)
		r.spans = spans
	} else {
		r.Metrics = res.endToEnd(len(sc.Sensors))
	}

	t0 = time.Now()
	chk, err := verify(pc, res, o.scale)
	if err != nil {
		return nil, err
	}
	lap("check", t0)
	r.Metrics.set("quality.loc_err", chk.locErr, "units")
	r.Metrics.set("quality.false_pos", float64(chk.falsePos), "count")
	r.Metrics.set("quality.false_neg", float64(chk.falseNeg), "count")
	r.Mismatches = chk.mismatches
	if oc.failed > 0 {
		r.Mismatches = append(r.Mismatches, fmt.Sprintf("%d of %d operations failed", oc.failed, oc.attempted))
	}
	if w.openLoop && backlogged(res.d) {
		r.Mismatches = append(r.Mismatches, "open-loop backlog grew: the schedule was not kept")
	}
	r.Correct = len(r.Mismatches) == 0
	r.Valid = !w.openLoop || r.Metrics["bench.gen_late_ms.p90"].Value <= maxGenLate
	return r, nil
}

// backlogged reports an open loop that fell behind its schedule: a
// scheduled request was abandoned, or the last write was acknowledged
// more than backlogLimit after it was due.
func backlogged(d *loader) bool {
	if d.abandoned > 0 {
		return true
	}
	var last writeRec
	for _, w := range d.writes {
		if w.due >= last.due {
			last = w
		}
	}
	return last.end-last.due > backlogLimit
}

// verify runs the correctness gate over the pass's delivered batches.
// Every zone's writes are sequential, so a zone's acknowledged batches
// are a prefix of its send list; the redelivered warm steps lead it.
func verify(pc passConfig, res *passResult, scale float64) (checkResult, error) {
	q := max(1, int(math.Round(float64(pc.w.qualitySteps)*scale)))
	var warm [][]step
	var measured [][]sendBatch
	var qualityAt []int
	for z := range pc.w.zones {
		acked := 0
		for _, wr := range res.d.writes {
			if wr.zone == z && wr.err == nil {
				acked++
			}
		}
		sends := res.d.sends[z][res.d.redelivered[z]:max(acked, res.d.redelivered[z])]
		qa := len(sends)
		if !pc.w.openLoop {
			qa = 0
			for _, sb := range sends {
				if sb.step < reorderWindow+q {
					qa++
				}
			}
		}
		warm = append(warm, pc.streams[z].steps[:pc.warm[z]])
		measured = append(measured, sends)
		qualityAt = append(qualityAt, qa)
	}
	return checkZones(pc.sc, pc.seed, warm, measured, qualityAt, res.served)
}

// print writes every metric as "workload metric value unit", the
// verdict lines, and the JSON summary line carrying the metrics
// BENCHMARK.json lists for this kind of run.
func (r *workloadResult) print(stdout, stderr io.Writer, name string, cfg *benchConfig, trace int) error {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(stdout, "%s %s %s %s\n", name, k, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	for _, s := range r.Mismatches {
		fmt.Fprintf(stdout, "%s mismatch %s\n", name, s)
	}
	fmt.Fprintf(stdout, "%s valid %v\n", name, r.Valid)
	fmt.Fprintf(stdout, "%s correct %v\n", name, r.Correct)
	listed := cfg.EndToEnd
	if trace == 1 {
		listed = cfg.PerLayer
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]metric{}}
	for _, spec := range listed {
		m, ok := r.Metrics[spec.Name]
		if !ok {
			return fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", spec.Name)
		}
		if m.Unit != spec.Unit {
			return fmt.Errorf("metric %s is measured in %s, BENCHMARK.json says %s", spec.Name, m.Unit, spec.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "bench: %s: %s has no samples; reported as 0\n", name, spec.Name)
		}
		out.Metrics[spec.Name] = m
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
