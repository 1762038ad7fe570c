package main

// bench -accuracy gate tests: the regression policy (pure decision)
// and the report/-check wiring on a small task.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAccuracyRegressions(t *testing.T) {
	committed := []accuracyRow{
		{Scenario: "A", LocErr: 2.0, FalsePos: 3, FalseNeg: 1},
		{Scenario: "B", LocErr: 1.0, FalsePos: 0, FalseNeg: 0},
	}
	cases := []struct {
		name string
		got  []accuracyRow
		want []string // substrings, one per expected regression
	}{
		{"identical", committed, nil},
		{"better everywhere", []accuracyRow{
			{Scenario: "A", LocErr: 1.5, FalsePos: 1, FalseNeg: 0},
			{Scenario: "B", LocErr: 0.9},
		}, nil},
		{"error within slack", []accuracyRow{
			{Scenario: "A", LocErr: 2.039, FalsePos: 3, FalseNeg: 1},
			committed[1],
		}, nil},
		{"error past slack", []accuracyRow{
			{Scenario: "A", LocErr: 2.041, FalsePos: 3, FalseNeg: 1},
			committed[1],
		}, []string{"A: localization error"}},
		{"false positive and negative rise", []accuracyRow{
			committed[0],
			{Scenario: "B", LocErr: 1.0, FalsePos: 1, FalseNeg: 1},
		}, []string{"B: false positives", "B: false negatives"}},
		{"scenario missing", committed[:1], []string{"B: not measured"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := accuracyRegressions(committed, tc.got)
			if len(bad) != len(tc.want) {
				t.Fatalf("regressions = %q, want %d", bad, len(tc.want))
			}
			for i, w := range tc.want {
				if !strings.Contains(bad[i], w) {
					t.Errorf("regression %d = %q, want it to mention %q", i, bad[i], w)
				}
			}
		})
	}
}

// TestBenchAccuracyReportAndCheck writes a report for a small task,
// checks the same task against it (the simulation is deterministic, so
// it must pass), and refuses a check whose task differs.
func TestBenchAccuracyReportAndCheck(t *testing.T) {
	task := accuracyTask{Reps: 1, Seed: 2, Steps: 4}
	var out bytes.Buffer
	if err := benchAccuracy(task, "", "", &out); err != nil {
		t.Fatal(err)
	}
	var r accuracyReport
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Task != task || len(r.Current) != len(accuracyScenarios(task.Seed)) || r.CPUs < 1 || r.GoMaxProcs < 1 {
		t.Fatalf("report = %+v", r)
	}
	path := filepath.Join(t.TempDir(), "BENCH_accuracy.json")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := benchAccuracy(task, "", path, &out); err != nil {
		t.Fatalf("self-check failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "check ok") {
		t.Fatalf("no pass verdict: %q", out.String())
	}

	other := task
	other.Steps++
	if err := benchAccuracy(other, "", path, &out); err == nil || !strings.Contains(err.Error(), "task") {
		t.Fatalf("task mismatch not refused: %v", err)
	}
}
