package sim

import (
	"math"
	"testing"

	"radloc/internal/scenario"
)

func quickScenario(strength float64) scenario.Scenario {
	sc := scenario.A(strength, false)
	sc.Params.TimeSteps = 8
	return sc
}

func TestRunSingleTrial(t *testing.T) {
	res, err := Run(quickScenario(50), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 1 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	if len(res.Trials[0].Steps) != 8 {
		t.Fatalf("steps = %d", len(res.Trials[0].Steps))
	}
	if len(res.ErrBySource) != 2 || len(res.MeanErr) != 8 {
		t.Fatalf("aggregate shapes: %d sources, %d steps", len(res.ErrBySource), len(res.MeanErr))
	}
	// With 50 µCi sources the filter must be accurate by step 7.
	last := res.MeanErr[7]
	if math.IsNaN(last) || last > 10 {
		t.Errorf("final mean error = %v, want ≤ 10", last)
	}
	if len(res.Trials[0].FinalEstimates) == 0 {
		t.Error("no final estimates recorded")
	}
}

func TestRunRepsAggregation(t *testing.T) {
	res, err := Run(quickScenario(50), Options{Seed: 2, Reps: 3, TrialWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 3 {
		t.Fatalf("trials = %d", len(res.Trials))
	}
	// Trials with different rep indices must differ (different seeds).
	a, b := res.Trials[0], res.Trials[1]
	same := true
	for i := range a.Steps {
		if a.Steps[i].Estimates != b.Steps[i].Estimates ||
			a.Steps[i].FalsePos != b.Steps[i].FalsePos {
			same = false
			break
		}
	}
	if same {
		sameErr := true
		for i := range a.Steps {
			for s := range a.Steps[i].SourceErr {
				if a.Steps[i].SourceErr[s] != b.Steps[i].SourceErr[s] &&
					!(math.IsNaN(a.Steps[i].SourceErr[s]) && math.IsNaN(b.Steps[i].SourceErr[s])) {
					sameErr = false
				}
			}
		}
		if sameErr {
			t.Error("trials 0 and 1 are identical — per-trial seeding broken")
		}
	}
	if len(res.FalsePos) != 8 || len(res.FalseNeg) != 8 {
		t.Fatalf("FP/FN series lengths: %d, %d", len(res.FalsePos), len(res.FalseNeg))
	}
	for tstep, fp := range res.FalsePos {
		if fp < 0 || math.IsNaN(fp) {
			t.Errorf("FalsePos[%d] = %v", tstep, fp)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() Result {
		res, err := Run(quickScenario(10), Options{Seed: 7, Reps: 2, TrialWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	for tr := range r1.Trials {
		for st := range r1.Trials[tr].Steps {
			a, b := r1.Trials[tr].Steps[st], r2.Trials[tr].Steps[st]
			if a.FalsePos != b.FalsePos || a.FalseNeg != b.FalseNeg || a.Estimates != b.Estimates {
				t.Fatalf("trial %d step %d differs across identical runs", tr, st)
			}
		}
	}
}

func TestSnapshots(t *testing.T) {
	res, err := Run(quickScenario(50), Options{Seed: 3, SnapshotSteps: []int{0, 4}})
	if err != nil {
		t.Fatal(err)
	}
	snaps := res.Trials[0].Snapshots
	if len(snaps) != 2 {
		t.Fatalf("snapshots = %d, want 2", len(snaps))
	}
	for _, step := range []int{0, 4} {
		if len(snaps[step]) != 2000 {
			t.Errorf("snapshot at step %d has %d particles", step, len(snaps[step]))
		}
	}
}

func TestOutOfOrderScenarioRuns(t *testing.T) {
	sc := quickScenario(50)
	sc.OutOfOrder = true
	sc.MeanLatency = 0.5
	res, err := Run(sc, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials[0].Steps) != 8 {
		t.Fatalf("steps = %d", len(res.Trials[0].Steps))
	}
	last := res.MeanErr[7]
	if math.IsNaN(last) || last > 15 {
		t.Errorf("out-of-order final mean error = %v", last)
	}
}

func TestRunRejectsInvalidScenario(t *testing.T) {
	sc := quickScenario(10)
	sc.Sensors = nil
	if _, err := Run(sc, Options{}); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestObstacleScenarioRuns(t *testing.T) {
	sc := scenario.A(50, true)
	sc.Params.TimeSteps = 6
	res, err := Run(sc, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	last := res.MeanErr[5]
	if math.IsNaN(last) || last > 12 {
		t.Errorf("obstacle scenario final error = %v", last)
	}
}
