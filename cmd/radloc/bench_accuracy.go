package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"radloc/internal/eval"
	"radloc/internal/scenario"
	"radloc/internal/sim"
)

// accuracyBenchSchema versions the BENCH_accuracy.json layout so the
// CI gate refuses to compare incompatible reports.
const accuracyBenchSchema = "radloc-bench-accuracy/1"

// accuracyErrSlack is the -check budget on localization error: a
// scenario whose last-quarter mean error exceeds the committed one by
// more than this fraction fails. False positives and false negatives
// get no budget — any rise fails.
const accuracyErrSlack = 0.02

// accuracyTask pins the canonical accuracy run: every scenario is
// simulated with these repetitions, root seed and horizon.
type accuracyTask struct {
	Reps  int    `json:"reps"`
	Seed  uint64 `json:"seed"`
	Steps int    `json:"steps"`
}

// canonicalAccuracyTask is the committed gate's task: 5 repetitions,
// seed 1, 30 steps.
var canonicalAccuracyTask = accuracyTask{Reps: 5, Seed: 1, Steps: 30}

// accuracyScenarios builds the gated scenario matrix: Scenario A with
// the U obstacle and the three-source A3 (both 50 µCi sources), and the nine-source B (grid
// layout, in-order delivery) and C (random layout, out-of-order
// delivery), both with obstacles.
func accuracyScenarios(seed uint64) []scenario.Scenario {
	return []scenario.Scenario{
		scenario.A(50, true),
		scenario.AThreeSources(50),
		scenario.B(true),
		scenario.C(true, seed),
	}
}

// accuracyRow is one scenario's accuracy under the task.
type accuracyRow struct {
	// Scenario is the scenario's name (scenario.Scenario.Name).
	Scenario string `json:"scenario"`
	// LocErr is the mean localization error over the last quarter of
	// the steps, averaged over sources and repetitions (false negatives
	// excluded, as in the paper's figures).
	LocErr float64 `json:"locErr"`
	// FalsePos is the number of false-positive estimates at the final
	// step, summed over repetitions.
	FalsePos int `json:"falsePos"`
	// FalseNeg is the number of missed sources at the final step,
	// summed over repetitions.
	FalseNeg int `json:"falseNeg"`
}

// accuracyReport is the machine-readable bench -accuracy artifact
// (BENCH_accuracy.json). Baseline carries a previous report's rows
// (-against), so before/after live in one committed file.
type accuracyReport struct {
	// Schema identifies the report layout (accuracyBenchSchema).
	Schema string `json:"schema"`
	// Task is the repetitions, seed and horizon every row ran with.
	Task accuracyTask `json:"task"`
	// CPUs is runtime.NumCPU() on the measuring host. The numbers do
	// not depend on it (the filter is bit-identical across worker
	// counts); it is stamped so that claim can be audited.
	CPUs int `json:"cpus"`
	// GoMaxProcs is runtime.GOMAXPROCS(0) on the measuring host.
	GoMaxProcs int `json:"gomaxprocs"`
	// Baseline is the previous report's rows (the "before"), copied
	// verbatim by -against; empty when no baseline was given.
	Baseline []accuracyRow `json:"baseline,omitempty"`
	// BaselineNote records where the baseline rows came from.
	BaselineNote string `json:"baselineNote,omitempty"`
	// Current is this run's rows (the "after").
	Current []accuracyRow `json:"current"`
}

// measureAccuracy simulates every scenario of accuracyScenarios under
// task and returns one row per scenario, in that order.
func measureAccuracy(task accuracyTask) ([]accuracyRow, error) {
	var rows []accuracyRow
	for _, sc := range accuracyScenarios(task.Seed) {
		sc.Params.TimeSteps = task.Steps
		res, err := sim.Run(sc, sim.Options{Seed: task.Seed, Reps: task.Reps, TrialWorkers: trialWorkers()})
		if err != nil {
			return nil, fmt.Errorf("bench: accuracy %s: %w", sc.Name, err)
		}
		row := accuracyRow{
			Scenario: sc.Name,
			LocErr:   eval.MeanOverWindow(res.MeanErr, task.Steps*3/4, task.Steps),
		}
		if math.IsNaN(row.LocErr) {
			return nil, fmt.Errorf("bench: accuracy %s: no source matched in the last quarter of %d steps", sc.Name, task.Steps)
		}
		for _, tr := range res.Trials {
			last := tr.Steps[len(tr.Steps)-1]
			row.FalsePos += last.FalsePos
			row.FalseNeg += last.FalseNeg
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// benchAccuracy runs the accuracy benchmark. againstPath, when
// non-empty, embeds a previous report's Current rows as this report's
// Baseline; checkPath, when non-empty, gates the measured rows against
// the committed report's Current rows (accuracyRegressions) instead of
// writing a report.
func benchAccuracy(task accuracyTask, againstPath, checkPath string, w io.Writer) error {
	if task.Reps < 1 || task.Steps < 1 {
		return fmt.Errorf("bench: accuracy task %+v needs ≥ 1 rep and ≥ 1 step", task)
	}
	var committed *accuracyReport
	if checkPath != "" {
		r, err := loadAccuracyReport(checkPath)
		if err != nil {
			return err
		}
		if r.Task != task {
			return fmt.Errorf("bench: %s was measured with task %+v, this run uses %+v", checkPath, r.Task, task)
		}
		committed = r
	}
	rows, err := measureAccuracy(task)
	if err != nil {
		return err
	}
	if committed != nil {
		if bad := accuracyRegressions(committed.Current, rows); len(bad) > 0 {
			for _, b := range bad {
				fmt.Fprintln(w, "bench -accuracy regression:", b)
			}
			return fmt.Errorf("bench: %d accuracy regression(s) against %s", len(bad), checkPath)
		}
		for _, r := range rows {
			fmt.Fprintf(w, "bench -accuracy check ok: %s err %.4f fp %d fn %d\n", r.Scenario, r.LocErr, r.FalsePos, r.FalseNeg)
		}
		return nil
	}

	report := accuracyReport{
		Schema:     accuracyBenchSchema,
		Task:       task,
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Current:    rows,
	}
	if againstPath != "" {
		prev, err := loadAccuracyReport(againstPath)
		if err != nil {
			return err
		}
		report.Baseline = prev.Current
		report.BaselineNote = "current side of bench -accuracy report " + againstPath
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

// accuracyRegressions lists every way got is worse than want: a
// scenario missing from got, a rise in its false positives or false
// negatives, or a localization error more than accuracyErrSlack above
// the committed one. Pure so the gate policy is testable without
// running a simulation.
func accuracyRegressions(want, got []accuracyRow) []string {
	byName := make(map[string]accuracyRow, len(got))
	for _, r := range got {
		byName[r.Scenario] = r
	}
	var bad []string
	for _, c := range want {
		m, ok := byName[c.Scenario]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: not measured", c.Scenario))
			continue
		}
		if m.FalsePos > c.FalsePos {
			bad = append(bad, fmt.Sprintf("%s: false positives %d > committed %d", c.Scenario, m.FalsePos, c.FalsePos))
		}
		if m.FalseNeg > c.FalseNeg {
			bad = append(bad, fmt.Sprintf("%s: false negatives %d > committed %d", c.Scenario, m.FalseNeg, c.FalseNeg))
		}
		if limit := c.LocErr * (1 + accuracyErrSlack); m.LocErr > limit {
			bad = append(bad, fmt.Sprintf("%s: localization error %.4f > %.4f (committed %.4f + %d%%)",
				c.Scenario, m.LocErr, limit, c.LocErr, int(accuracyErrSlack*100)))
		}
	}
	return bad
}

// loadAccuracyReport reads and schema-checks a bench -accuracy report.
func loadAccuracyReport(path string) (*accuracyReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r accuracyReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parse %s: %w", path, err)
	}
	if r.Schema != accuracyBenchSchema {
		return nil, fmt.Errorf("bench: %s has schema %q, want %q", path, r.Schema, accuracyBenchSchema)
	}
	return &r, nil
}
