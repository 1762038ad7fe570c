package sim

import (
	"fmt"
	"testing"

	"radloc/internal/core"
	"radloc/internal/eval"
	"radloc/internal/faults"
	"radloc/internal/fusion"
	"radloc/internal/network"
	"radloc/internal/rng"
	"radloc/internal/scenario"
)

// legacyTrial is the trial loop Run used before it drove a
// fusion.Engine: a bare core.Localizer fed every delivered reading in
// delivery order and estimated once at the end of each step. It is the
// reference the paper-mode engine must reproduce bit for bit.
func legacyTrial(t *testing.T, sc scenario.Scenario, opts Options, rep uint64, snapshotSteps []int) Trial {
	t.Helper()
	seed := opts.Seed*1_000_003 + rep
	cfg := fusion.LocalizerConfig(sc)
	cfg.Seed = seed
	if opts.TrialWorkers > 1 {
		cfg.Workers = 1
	}
	loc, err := core.NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := sc.Params.TimeSteps
	plan := network.InOrder(len(sc.Sensors), steps)
	if sc.OutOfOrder {
		plan = network.OutOfOrder(len(sc.Sensors), steps, rng.NewNamed(seed, "sim/delivery"), network.Options{
			MeanLatency: sc.MeanLatency,
		})
	}
	var inj *faults.Injector
	if len(opts.FaultSpecs) > 0 {
		if inj, err = faults.NewInjector(len(sc.Sensors), seed, opts.FaultSpecs); err != nil {
			t.Fatal(err)
		}
		plan = plan.Filter(func(ev network.Event) bool {
			return inj.Delivered(ev.SensorIndex, ev.EmitStep)
		})
	}
	measure := rng.NewNamed(seed, "sim/measurements")
	tr := Trial{Snapshots: map[int][]core.Particle{}}
	for step := 0; step < steps; step++ {
		for _, ev := range plan.EventsInStep(step) {
			sen := sc.Sensors[ev.SensorIndex]
			m := sen.Measure(measure, sc.Sources, sc.Obstacles, ev.EmitStep)
			loc.Ingest(sen, inj.Transform(ev.SensorIndex, ev.EmitStep, m.CPM))
		}
		ests := loc.Estimates()
		match := eval.Match(ests, sc.Sources, sc.Params.MatchRadius)
		tr.Steps = append(tr.Steps, StepStat{
			Step: step, SourceErr: match.Err,
			FalsePos: match.FalsePos, FalseNeg: match.FalseNeg, Estimates: len(ests),
		})
		for _, s := range snapshotSteps {
			if s == step {
				tr.Snapshots[step] = loc.Particles()
			}
		}
		tr.FinalEstimates = ests
	}
	return tr
}

// bits renders v with every float in its shortest round-trip form, so
// two renderings are equal exactly when the floats are bit-identical
// (NaN payloads aside).
func bits(v any) string { return fmt.Sprintf("%#v", v) }

// TestPaperModeMatchesLegacyLoop: Run's paper-mode engine reproduces
// the bare-localizer loop bit for bit — every StepStat, the final
// estimates and every Fig. 4 snapshot — in order and out of order,
// with and without obstacles and injected faults, one trial at a time
// and both at once.
func TestPaperModeMatchesLegacyLoop(t *testing.T) {
	// The fault case runs long enough for the stuck sensor to be
	// quarantined if the health monitor were on.
	cases := []struct {
		name  string
		sc    scenario.Scenario
		steps int
		specs []faults.Spec
	}{
		{"A-obstacle", scenario.A(50, true), 10, nil},
		{"A3", scenario.AThreeSources(50), 10, nil},
		{"B", scenario.B(true), 4, nil},
		{"C-out-of-order", scenario.C(true, 1), 4, nil},
		{"A-faults", scenario.A(50, false), 16, []faults.Spec{
			{Sensor: 0, Kind: faults.StuckAt, StuckCPM: 400},
			{Sensor: 35, Kind: faults.Drift, Gain: 0.2},
			{Sensor: 17, Kind: faults.Dropout, Prob: 0.5},
			{Sensor: 9, Kind: faults.Burst, Prob: 0.3, BurstCPM: 900},
		}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				sc := c.sc
				sc.Params.TimeSteps = c.steps
				last := sc.Params.TimeSteps - 1
				opts := Options{Seed: 4, Reps: 2, TrialWorkers: workers, SnapshotSteps: []int{0, last}, FaultSpecs: c.specs}
				res, err := Run(sc, opts)
				if err != nil {
					t.Fatal(err)
				}
				for r, got := range res.Trials {
					var snaps []int
					if r == 0 {
						snaps = opts.SnapshotSteps
					}
					want := legacyTrial(t, sc, opts, uint64(r), snaps)
					for i := range want.Steps {
						if bits(got.Steps[i]) != bits(want.Steps[i]) {
							t.Fatalf("trial %d step %d: got %s, want %s", r, i, bits(got.Steps[i]), bits(want.Steps[i]))
						}
					}
					if len(got.Steps) != len(want.Steps) {
						t.Fatalf("trial %d: %d steps, want %d", r, len(got.Steps), len(want.Steps))
					}
					if bits(got.FinalEstimates) != bits(want.FinalEstimates) {
						t.Fatalf("trial %d final estimates: got %s, want %s", r, bits(got.FinalEstimates), bits(want.FinalEstimates))
					}
					if len(got.Snapshots) != len(want.Snapshots) {
						t.Fatalf("trial %d: %d snapshots, want %d", r, len(got.Snapshots), len(want.Snapshots))
					}
					for step, ps := range want.Snapshots {
						if bits(got.Snapshots[step]) != bits(ps) {
							t.Fatalf("trial %d: snapshot after step %d differs", r, step)
						}
					}
				}
			})
		}
	}
}
