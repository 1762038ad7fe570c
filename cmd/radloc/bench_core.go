package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"radloc/internal/core"
	"radloc/internal/fusion"
	"radloc/internal/obs"
	"radloc/internal/rng"
)

// coreBenchSchema versions the BENCH_core.json layout so the CI gate
// refuses to compare incompatible reports.
const coreBenchSchema = "radloc-bench-core/1"

// coreBenchCheckSlack is the regression budget of the -check gate: a
// measured median readings/sec more than this fraction below the
// committed report's fails the run.
const coreBenchCheckSlack = 0.20

// coreBenchNumbers are the measured results of one bench -core
// configuration: N runs of the canonical task (one engine fed the
// scenario workload through Submit, estimates refreshed every sensor
// round), summarized by median so a single noisy run cannot skew the
// committed baseline.
type coreBenchNumbers struct {
	// Runs is the number of timed repetitions (the policy wants ≥ 5).
	Runs int `json:"runs"`
	// Readings is the number of measurements ingested per run.
	Readings int `json:"readings"`
	// ReadingsPerSecMedian is the median throughput across runs — the
	// headline number the CI gate compares.
	ReadingsPerSecMedian float64 `json:"readingsPerSecMedian"`
	// ReadingsPerSecMin is the slowest run's throughput.
	ReadingsPerSecMin float64 `json:"readingsPerSecMin"`
	// ReadingsPerSecMax is the fastest run's throughput.
	ReadingsPerSecMax float64 `json:"readingsPerSecMax"`
	// RunSeconds lists each run's wall-clock seconds, in run order.
	RunSeconds []float64 `json:"runSeconds"`
	// StageSecondsMedian is the median (across runs) of each filter
	// stage's total wall-clock seconds for the whole run, read from the
	// radloc_filter_stage_seconds histograms.
	StageSecondsMedian map[string]float64 `json:"stageSecondsMedian"`
}

// coreBenchReport is the machine-readable bench -core artifact
// (BENCH_core.json). Baseline carries the numbers of a previous report
// (-against), so before/after live in one committed file.
type coreBenchReport struct {
	// Schema identifies the report layout (coreBenchSchema).
	Schema string `json:"schema"`
	// Particles, Sensors, Steps, Seed, Workers pin the canonical task.
	Particles int    `json:"particles"`
	Sensors   int    `json:"sensors"`
	Steps     int    `json:"steps"`
	Seed      uint64 `json:"seed"`
	// Workers is the filter's worker bound the run used, for both the
	// weighting and the mean-shift pool (0 = GOMAXPROCS).
	Workers int `json:"workers"`
	// CPUs is runtime.NumCPU() on the measuring host — single-core
	// hosts cannot show worker-pool speedups, so read the numbers with
	// this in hand.
	CPUs int `json:"cpus"`
	// GoMaxProcs is runtime.GOMAXPROCS(0) on the measuring host: the
	// scheduler parallelism the run actually had, which is what bounds
	// the worker pools when 0-valued worker flags default to it. The
	// -check gate compares baselines only between hosts where both this
	// and CPUs match; reports predating the field carry 0, which -check
	// treats as unknown (CPUs alone decides).
	GoMaxProcs int `json:"gomaxprocs,omitempty"`
	// Baseline is the previous report's measurement (the "before"),
	// copied verbatim by -against; null when no baseline was given.
	Baseline *coreBenchNumbers `json:"baseline,omitempty"`
	// BaselineNote records where the baseline numbers came from.
	BaselineNote string `json:"baselineNote,omitempty"`
	// Current is this run's measurement (the "after").
	Current coreBenchNumbers `json:"current"`
	// Speedup is Current over Baseline median throughput (0 when no
	// baseline).
	Speedup float64 `json:"speedup,omitempty"`
}

// benchCore runs the filter-core throughput benchmark: `runs` timed
// repetitions of the canonical task, each on a fresh engine and fresh
// metrics registry. againstPath, when non-empty, loads a previous
// report and embeds its Current numbers as this report's Baseline;
// checkPath, when non-empty, compares the measured median against the
// committed report and returns an error on a >20% regression instead
// of writing a report.
func benchCore(particles, sensors, steps, runs, workers int, seed uint64, againstPath, checkPath string, w io.Writer) error {
	if runs < 1 {
		return fmt.Errorf("bench: -runs %d < 1", runs)
	}
	sc := scenarioForSensors(sensors)
	sc.Params.NumParticles = particles

	// A baseline measured on a different core count is not comparable:
	// decide that before burning benchmark time, and skip the gate with
	// a warning instead of failing CI on hardware drift.
	var checkAgainst *coreBenchReport
	if checkPath != "" {
		committed, err := loadCoreBenchReport(checkPath)
		if err != nil {
			return err
		}
		if why := coreBenchHostMismatch(committed, runtime.NumCPU(), runtime.GOMAXPROCS(0)); why != "" {
			fmt.Fprintf(w, "bench -core check skipped: %s — rerun `radloc bench -core -out %s` on matching hardware to re-anchor the baseline\n", why, checkPath)
			return nil
		}
		checkAgainst = committed
	}

	// One precomputed batch stream shared by every run: the benchmark
	// times ingest + estimate refresh, not measurement synthesis.
	// Readings are unsequenced (seq 0) so they take the direct filter
	// path, in batches of 16.
	stream := rng.NewNamed(seed, "bench/core")
	const batchSize = 16
	var batches [][]fusion.Meas
	var cur []fusion.Meas
	for step := 0; step < steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, sc.Obstacles, step)
			cur = append(cur, fusion.Meas{SensorID: sen.ID, CPM: m.CPM, Step: step})
			if len(cur) == batchSize {
				batches = append(batches, cur)
				cur = nil
			}
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	readings := steps * len(sc.Sensors)

	oneRun := func() (float64, map[string]float64, error) {
		reg := obs.NewRegistry()
		cfg := fusion.ScenarioConfig(sc, seed)
		cfg.Localizer.Metrics = reg
		cfg.Localizer.Workers = workers
		e, err := fusion.NewEngine(cfg)
		if err != nil {
			return 0, nil, err
		}
		ctx := context.Background()
		t0 := time.Now()
		for _, b := range batches {
			if _, err := e.Submit(ctx, b); err != nil {
				return 0, nil, err
			}
		}
		elapsed := time.Since(t0).Seconds()
		stages := make(map[string]float64, len(core.FilterStages))
		for _, stage := range core.FilterStages {
			stages[stage] = core.StageHistogram(reg, stage).Summary().Sum
		}
		return elapsed, stages, nil
	}

	// One untimed warmup run stabilizes the timed ones (page cache,
	// lazily built tables).
	if _, _, err := oneRun(); err != nil {
		return err
	}

	num := coreBenchNumbers{Runs: runs, Readings: readings}
	stageRuns := make(map[string][]float64, len(core.FilterStages))
	var rates []float64
	for r := 0; r < runs; r++ {
		elapsed, stages, err := oneRun()
		if err != nil {
			return err
		}
		num.RunSeconds = append(num.RunSeconds, elapsed)
		rates = append(rates, float64(readings)/elapsed)
		for s, v := range stages {
			stageRuns[s] = append(stageRuns[s], v)
		}
	}
	num.ReadingsPerSecMedian = median(rates)
	num.ReadingsPerSecMin = minOf(rates)
	num.ReadingsPerSecMax = maxOf(rates)
	num.StageSecondsMedian = make(map[string]float64, len(stageRuns))
	for s, vs := range stageRuns {
		num.StageSecondsMedian[s] = median(vs)
	}

	if checkAgainst != nil {
		committed := checkAgainst
		floor := committed.Current.ReadingsPerSecMedian * (1 - coreBenchCheckSlack)
		if num.ReadingsPerSecMedian < floor {
			return fmt.Errorf("bench: core regression: measured %.0f readings/sec < %.0f (committed %.0f − %d%% slack) — rerun `radloc bench -core -against %s -out %s` if the slowdown is intended",
				num.ReadingsPerSecMedian, floor, committed.Current.ReadingsPerSecMedian,
				int(coreBenchCheckSlack*100), checkPath, checkPath)
		}
		fmt.Fprintf(w, "bench -core check ok: %.0f readings/sec ≥ %.0f floor (committed %.0f, %d runs)\n",
			num.ReadingsPerSecMedian, floor, committed.Current.ReadingsPerSecMedian, runs)
		return nil
	}

	report := coreBenchReport{
		Schema:     coreBenchSchema,
		Particles:  particles,
		Sensors:    len(sc.Sensors),
		Steps:      steps,
		Seed:       seed,
		Workers:    workers,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Current:    num,
	}
	if againstPath != "" {
		prev, err := loadCoreBenchReport(againstPath)
		if err != nil {
			return err
		}
		base := prev.Current
		report.Baseline = &base
		report.BaselineNote = fmt.Sprintf("current side of bench -core report %s, measured on %d CPUs", againstPath, prev.CPUs)
		if base.ReadingsPerSecMedian > 0 {
			report.Speedup = num.ReadingsPerSecMedian / base.ReadingsPerSecMedian
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// coreBenchHostMismatch reports why the current host's throughput
// cannot be compared against the committed report — a different CPU
// count, or a different GOMAXPROCS when the report records one — or
// "" when the hosts are comparable. Pure so the skip policy is
// testable without running a benchmark.
func coreBenchHostMismatch(committed *coreBenchReport, cpus, maxProcs int) string {
	if committed.CPUs != cpus {
		return fmt.Sprintf("baseline measured on %d CPUs, this host has %d", committed.CPUs, cpus)
	}
	if committed.GoMaxProcs != 0 && committed.GoMaxProcs != maxProcs {
		return fmt.Sprintf("baseline measured with GOMAXPROCS=%d, this run has %d", committed.GoMaxProcs, maxProcs)
	}
	return ""
}

// loadCoreBenchReport reads and schema-checks a bench -core report.
func loadCoreBenchReport(path string) (*coreBenchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r coreBenchReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema != coreBenchSchema {
		return nil, fmt.Errorf("bench: %s has schema %q, want %q", path, r.Schema, coreBenchSchema)
	}
	return &r, nil
}

// median returns the middle value of xs (mean of the middle two for
// even lengths). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// minOf returns the smallest value of xs (0 for an empty slice).
func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// maxOf returns the largest value of xs (0 for an empty slice).
func maxOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
