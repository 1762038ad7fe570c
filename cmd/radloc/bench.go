package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	runtimepprof "runtime/pprof"
	"strings"
	"time"

	"radloc"
	"radloc/internal/core"
	"radloc/internal/obs"
	"radloc/internal/rng"
)

// benchCmd profiles the filter on this host: it runs one timing
// configuration (the Table I layouts) with the localizer's per-stage
// instrumentation on and emits a CSV of stage latency quantiles read
// from the same radloc_filter_stage_seconds histograms radlocd serves
// on /metrics. With -profile it also writes CPU and heap profiles
// next to the result CSV for `go tool pprof`:
//
//	radloc bench -particles 5000 -sensors 36 -steps 10 -out bench.csv -profile
//	go tool pprof bench.cpu.pprof
//
// With -core it runs the filter-core throughput benchmark per the
// benchmarking policy (canonical task, N≥5 runs, machine-readable
// report) and emits BENCH_core.json; -against embeds a previous
// report's numbers as the before side, -check gates on regression
// against a committed report:
//
//	radloc bench -core -particles 2000 -steps 6 -runs 7 -out BENCH_core.json
//	radloc bench -core -check BENCH_core.json
//
// With -accuracy it runs the localization-accuracy benchmark: sim.Run
// on Scenarios A (with obstacle), A3, B and C, reporting per scenario
// the last-quarter mean error and the summed final false positives and
// negatives as BENCH_accuracy.json; -against and -check work as for
// -core, and -check fails on any rise in false positives or negatives
// or an error more than 2% above the committed report's:
//
//	radloc bench -accuracy -out BENCH_accuracy.json
//	radloc bench -accuracy -check BENCH_accuracy.json
func benchCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		particles = fs.Int("particles", 5000, "particle population size")
		sensors   = fs.Int("sensors", 36, "sensor count: ≤36 = scenario A layout, else scenario B (196)")
		steps     = fs.Int("steps", 10, "time steps (each sensor reports once per step)")
		seed      = fs.Uint64("seed", 1, "random seed")
		workers   = fs.Int("workers", 0, "mean-shift worker count (0 = GOMAXPROCS)")
		out       = fs.String("out", "", "output CSV (default stdout); profiles are written next to it")
		profile   = fs.Bool("profile", false, "write CPU (<base>.cpu.pprof) and heap (<base>.heap.pprof) profiles")
		coreBench = fs.Bool("core", false, "run the filter-core throughput benchmark (N timed runs of the canonical engine task) and emit a BENCH_core.json report")
		accuracy  = fs.Bool("accuracy", false, "run the localization-accuracy benchmark (Scenarios A with obstacle, A3, B, C; 5 reps, seed 1, 30 steps) and emit a BENCH_accuracy.json report")
		runs      = fs.Int("runs", 7, "with -core: timed repetitions of the canonical task (policy wants ≥5)")
		against   = fs.String("against", "", "with -core or -accuracy: previous report whose numbers become this report's baseline (before/after in one file)")
		check     = fs.String("check", "", "with -core: committed report to gate against — fail on a >20% median readings/sec regression; with -accuracy: fail on any rise in false positives or negatives or a >2% error rise; write no report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *accuracy || *coreBench {
		// Reports are buffered and written only once complete, so -out
		// may name the -against or -check file, and a failed run leaves
		// it untouched.
		var report bytes.Buffer
		var err error
		if *accuracy {
			err = benchAccuracy(canonicalAccuracyTask, *against, *check, &report)
		} else {
			// -core runs the canonical cell (2000 particles, 6 steps)
			// unless -particles/-steps are set; the stage bench keeps its
			// own defaults.
			p, st := *particles, *steps
			if !flagWasSet(fs, "particles") {
				p = 2000
			}
			if !flagWasSet(fs, "steps") {
				st = 6
			}
			err = benchCore(p, *sensors, st, *runs, *workers, *seed, *against, *check, &report)
		}
		if err != nil || *out == "" {
			if _, werr := stdout.Write(report.Bytes()); err == nil {
				err = werr
			}
			return err
		}
		return os.WriteFile(*out, report.Bytes(), 0o644)
	}

	sc := scenarioForSensors(*sensors)
	sc.Params.NumParticles = *particles
	reg := obs.NewRegistry()
	cfg := radloc.LocalizerConfig(sc)
	cfg.Seed = *seed
	cfg.Workers = *workers
	cfg.Metrics = reg
	loc, err := radloc.NewLocalizer(cfg)
	if err != nil {
		return err
	}

	base := "bench"
	if *out != "" {
		base = strings.TrimSuffix(*out, ".csv")
	}
	if *profile {
		f, err := os.Create(base + ".cpu.pprof")
		if err != nil {
			return err
		}
		defer f.Close()
		if err := runtimepprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer runtimepprof.StopCPUProfile()
	}

	stream := rng.NewNamed(*seed, "bench/measure")
	t0 := time.Now()
	for step := 0; step < *steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, sc.Obstacles, step)
			loc.Ingest(sen, m.CPM)
		}
		_ = loc.Estimates()
	}
	elapsed := time.Since(t0)

	if *profile {
		runtime.GC() // flush unreachable allocations so the heap profile shows live bytes
		hf, err := os.Create(base + ".heap.pprof")
		if err != nil {
			return err
		}
		if err := runtimepprof.WriteHeapProfile(hf); err != nil {
			hf.Close()
			return err
		}
		if err := hf.Close(); err != nil {
			return err
		}
	}

	w, closeFn, err := (&commonFlags{out: *out}).open(stdout)
	if err != nil {
		return err
	}
	defer func() { _ = closeFn() }()
	fmt.Fprintf(w, "# radloc bench: %d particles, %d sensors, %d steps, workers=%d, host %d CPUs, wall %.3fs\n",
		*particles, len(sc.Sensors), *steps, *workers, runtime.NumCPU(), elapsed.Seconds())
	fmt.Fprintln(w, "stage,count,total_seconds,mean_seconds,p50_seconds,p95_seconds,p99_seconds")
	for _, stage := range core.FilterStages {
		s := core.StageHistogram(reg, stage).Summary()
		mean := 0.0
		if s.Count > 0 {
			mean = s.Sum / float64(s.Count)
		}
		fmt.Fprintf(w, "%s,%d,%.6f,%.9f,%.9f,%.9f,%.9f\n",
			stage, s.Count, s.Sum, mean, s.P50, s.P95, s.P99)
	}
	return nil
}
