// Package sim drives complete experiments: it wires a scenario's
// sensors, sources and obstacles to the fusion.Engine radlocd serves,
// run in paper mode (health monitor off, no tracking, estimates
// refreshed once at the end of each step), through a network delivery
// plan. It advances time step by step (one step = every sensor reports
// once, Section VI), scores each step with eval.Match, and aggregates
// repeated trials — the loop behind every figure in the paper's
// evaluation.
package sim

import (
	"fmt"
	"math"
	"sync"

	"radloc/internal/core"
	"radloc/internal/eval"
	"radloc/internal/faults"
	"radloc/internal/fusion"
	"radloc/internal/network"
	"radloc/internal/rng"
	"radloc/internal/scenario"
)

// Options configures a simulation run.
type Options struct {
	// Seed is the root seed; trial r derives all randomness from
	// (Seed, r).
	Seed uint64
	// Reps is the number of repeated trials averaged together (the
	// paper uses 10). Default 1.
	Reps int
	// TrialWorkers bounds how many trials run concurrently (default 1).
	// With one trial at a time its mean-shift parallelizes internally;
	// with more, each trial's localizer runs on one worker.
	TrialWorkers int
	// SnapshotSteps lists time steps after which the particle
	// population of trial 0 is recorded (Fig. 4).
	SnapshotSteps []int
	// FaultSpecs injects the composable fault models of internal/faults
	// (dead or stuck sensors, calibration drift, dropout, burst noise,
	// byzantine spoofing). Randomness derives from the trial seed so
	// chaos runs stay reproducible.
	FaultSpecs []faults.Spec
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 1
	}
	if o.TrialWorkers <= 0 {
		o.TrialWorkers = 1
	}
	return o
}

// StepStat holds one trial's metrics at the end of one time step.
type StepStat struct {
	Step      int
	SourceErr []float64 // per-source localization error, NaN = false negative
	FalsePos  int
	FalseNeg  int
	Estimates int
}

// Trial is the outcome of one simulation run.
type Trial struct {
	Steps []StepStat
	// Snapshots holds particle populations recorded after the requested
	// steps (only on trial 0).
	Snapshots map[int][]core.Particle
	// FinalEstimates is the estimate set after the last step.
	FinalEstimates []core.Estimate
}

// Result aggregates all trials of a scenario.
type Result struct {
	Scenario scenario.Scenario
	Trials   []Trial

	// ErrBySource[s][t] is the mean (over trials, ignoring false
	// negatives) localization error of source s at step t.
	ErrBySource [][]float64
	// MeanErr[t] is the mean over sources of ErrBySource at step t.
	MeanErr []float64
	// FalsePos[t] and FalseNeg[t] are mean counts per step.
	FalsePos []float64
	FalseNeg []float64
}

// Run executes a scenario and aggregates the trials.
func Run(sc scenario.Scenario, opts Options) (Result, error) {
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	// Validate the specs up front so every trial sees the same error
	// instead of racing to report it.
	for i, s := range opts.FaultSpecs {
		if err := s.Validate(len(sc.Sensors)); err != nil {
			return Result{}, fmt.Errorf("sim: spec %d: %w", i, err)
		}
	}
	opts = opts.withDefaults()

	trials := make([]Trial, opts.Reps)
	errs := make([]error, opts.Reps)

	var wg sync.WaitGroup
	sem := make(chan struct{}, opts.TrialWorkers)
	for r := 0; r < opts.Reps; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var snaps []int
			if r == 0 {
				snaps = opts.SnapshotSteps
			}
			trials[r], errs[r] = runTrial(sc, opts, uint64(r), snaps)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}

	res := Result{Scenario: sc, Trials: trials}
	res.aggregate()
	return res, nil
}

// runTrial executes one end-to-end simulation on a paper-mode engine:
// every delivered reading goes in unsequenced (in delivery order,
// bypassing the reorder gate), and the estimates are refreshed only at
// the end of each step.
func runTrial(sc scenario.Scenario, opts Options, rep uint64, snapshotSteps []int) (Trial, error) {
	seed := opts.Seed*1_000_003 + rep
	cfg := fusion.ScenarioConfig(sc, seed)
	cfg.Health.Disabled = true
	cfg.EstimateEvery = math.MaxInt
	if opts.TrialWorkers > 1 {
		cfg.Localizer.Workers = 1
	}
	eng, err := fusion.NewEngine(cfg)
	if err != nil {
		return Trial{}, fmt.Errorf("trial %d: %w", rep, err)
	}

	steps := sc.Params.TimeSteps
	var plan network.Plan
	if sc.OutOfOrder {
		plan = network.OutOfOrder(len(sc.Sensors), steps, rng.NewNamed(seed, "sim/delivery"), network.Options{
			MeanLatency: sc.MeanLatency,
		})
	} else {
		plan = network.InOrder(len(sc.Sensors), steps)
	}

	var inj *faults.Injector
	if len(opts.FaultSpecs) > 0 {
		inj, err = faults.NewInjector(len(sc.Sensors), seed, opts.FaultSpecs)
		if err != nil {
			return Trial{}, fmt.Errorf("trial %d: %w", rep, err)
		}
		// Delivery-level faults (dropouts, dead sensors) are knocked out
		// of the network schedule itself; value-level faults transform
		// readings below.
		plan = plan.Filter(func(ev network.Event) bool {
			return inj.Delivered(ev.SensorIndex, ev.EmitStep)
		})
	}

	measure := rng.NewNamed(seed, "sim/measurements")
	snapWant := make(map[int]bool, len(snapshotSteps))
	for _, s := range snapshotSteps {
		snapWant[s] = true
	}

	tr := Trial{Steps: make([]StepStat, 0, steps)}
	if len(snapWant) > 0 {
		tr.Snapshots = make(map[int][]core.Particle, len(snapWant))
	}

	for step := 0; step < steps; step++ {
		for _, ev := range plan.EventsInStep(step) {
			sen := sc.Sensors[ev.SensorIndex]
			m := sen.Measure(measure, sc.Sources, sc.Obstacles, ev.EmitStep)
			cpm := inj.Transform(ev.SensorIndex, ev.EmitStep, m.CPM)
			if _, err := eng.IngestSeq(fusion.Meas{SensorID: sen.ID, CPM: cpm, Step: ev.EmitStep}); err != nil {
				return Trial{}, fmt.Errorf("trial %d step %d: %w", rep, step, err)
			}
		}

		eng.Refresh()
		ests := eng.Snapshot().Estimates

		match := eval.Match(ests, sc.Sources, sc.Params.MatchRadius)
		tr.Steps = append(tr.Steps, StepStat{
			Step:      step,
			SourceErr: match.Err,
			FalsePos:  match.FalsePos,
			FalseNeg:  match.FalseNeg,
			Estimates: len(ests),
		})
		if snapWant[step] {
			tr.Snapshots[step] = eng.Particles()
		}
		if step == steps-1 {
			tr.FinalEstimates = ests
		}
	}
	return tr, nil
}

// LocalizerConfig is fusion.LocalizerConfig; the benchmark module's
// reference engine calls it under this name.
func LocalizerConfig(sc scenario.Scenario) core.Config { return fusion.LocalizerConfig(sc) }

// aggregate fills the per-step aggregates from the trials.
func (r *Result) aggregate() {
	if len(r.Trials) == 0 {
		return
	}
	steps := len(r.Trials[0].Steps)
	numSources := len(r.Scenario.Sources)

	r.ErrBySource = make([][]float64, numSources)
	for s := 0; s < numSources; s++ {
		rows := make([][]float64, steps)
		for t := 0; t < steps; t++ {
			row := make([]float64, 0, len(r.Trials))
			for _, tr := range r.Trials {
				if t < len(tr.Steps) && s < len(tr.Steps[t].SourceErr) {
					row = append(row, tr.Steps[t].SourceErr[s])
				}
			}
			rows[t] = row
		}
		r.ErrBySource[s] = eval.Series(rows)
	}

	r.MeanErr = make([]float64, steps)
	for t := 0; t < steps; t++ {
		row := make([]float64, 0, numSources)
		for s := 0; s < numSources; s++ {
			row = append(row, r.ErrBySource[s][t])
		}
		r.MeanErr[t] = eval.MeanOverWindow(row, 0, len(row))
	}

	r.FalsePos = make([]float64, steps)
	r.FalseNeg = make([]float64, steps)
	for t := 0; t < steps; t++ {
		var fp, fn float64
		for _, tr := range r.Trials {
			fp += float64(tr.Steps[t].FalsePos)
			fn += float64(tr.Steps[t].FalseNeg)
		}
		r.FalsePos[t] = fp / float64(len(r.Trials))
		r.FalseNeg[t] = fn / float64(len(r.Trials))
	}
}
