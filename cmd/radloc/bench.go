package main

import (
	"bytes"
	"flag"
	"io"
	"os"
)

// benchCmd runs one of the two gated reports.
//
// With -core it runs the filter-core throughput benchmark per the
// benchmarking policy (canonical task, N≥5 runs, machine-readable
// report, per-stage medians) and emits BENCH_core.json; -against
// embeds a previous report's numbers as the before side, -check gates
// on regression against a committed report:
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
//
// CPU and heap profiles come from `go test -bench . -cpuprofile` in
// internal/core and internal/meanshift, or from a live radlocd run
// with -pprof.
func benchCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		particles = fs.Int("particles", 2000, "with -core: particle population size")
		sensors   = fs.Int("sensors", 36, "with -core: sensor count: ≤36 = scenario A layout, else scenario B (196)")
		steps     = fs.Int("steps", 6, "with -core: time steps (each sensor reports once per step)")
		seed      = fs.Uint64("seed", 1, "with -core: random seed")
		workers   = fs.Int("workers", 0, "with -core: worker count of the filter's mean-shift pool (0 = GOMAXPROCS)")
		out       = fs.String("out", "", "report file (default stdout)")
		coreBench = fs.Bool("core", false, "run the filter-core throughput benchmark (N timed runs of the canonical engine task) and emit a BENCH_core.json report")
		accuracy  = fs.Bool("accuracy", false, "run the localization-accuracy benchmark (Scenarios A with obstacle, A3, B, C; 5 reps, seed 1, 30 steps) and emit a BENCH_accuracy.json report")
		runs      = fs.Int("runs", 7, "with -core: timed repetitions of the canonical task (policy wants ≥5)")
		against   = fs.String("against", "", "with -core or -accuracy: previous report whose numbers become this report's baseline (before/after in one file)")
		check     = fs.String("check", "", "with -core: committed report to gate against — fail on a >20% median readings/sec regression; with -accuracy: fail on any rise in false positives or negatives or a >2% error rise; write no report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*accuracy && !*coreBench {
		return usageError()
	}
	// Reports are buffered and written only once complete, so -out may
	// name the -against or -check file, and a failed run leaves it
	// untouched.
	var report bytes.Buffer
	var err error
	if *accuracy {
		err = benchAccuracy(canonicalAccuracyTask, *against, *check, &report)
	} else {
		err = benchCore(*particles, *sensors, *steps, *runs, *workers, *seed, *against, *check, &report)
	}
	if err != nil || *out == "" {
		if _, werr := stdout.Write(report.Bytes()); err == nil {
			err = werr
		}
		return err
	}
	return os.WriteFile(*out, report.Bytes(), 0o644)
}
