package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"time"

	"radloc"
	"radloc/internal/eval"
	"radloc/internal/faults"
	"radloc/internal/fusion"
	"radloc/internal/network"
	"radloc/internal/report"
	"radloc/internal/rng"
	"radloc/internal/scenario"
)

// ablateCmd runs the design-choice ablations of DESIGN.md
// (`radloc ablate <fusion-range|estimator|scale-k>`).
func ablateCmd(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("ablate: want fusion-range, estimator, scale-k, faults, delivery, transport or storage\n%s", usage)
	}
	which := args[0]
	fs := flag.NewFlagSet("ablate "+which, flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	w, closeFn, err := cf.open(stdout)
	if err != nil {
		return err
	}
	defer func() { _ = closeFn() }()

	switch which {
	case "fusion-range":
		return ablateFusionRange(w, cf)
	case "estimator":
		return ablateEstimator(w, cf)
	case "scale-k":
		return ablateScaleK(w, cf)
	case "faults":
		return ablateFaults(w, cf)
	case "delivery":
		return ablateDelivery(w, cf)
	case "transport":
		return ablateTransport(w, cf)
	case "storage":
		return ablateStorage(w, cf)
	default:
		return fmt.Errorf("ablate: unknown experiment %q", which)
	}
}

// ablateFusionRange sweeps d over the two-source Scenario A: too small
// fragments the population (false positives), too large couples the
// sources, disabled reproduces the Fig. 2 failure.
func ablateFusionRange(w io.Writer, cf commonFlags) error {
	tb := report.NewTable(
		"Ablation: fusion range d (two 50 µCi sources, Scenario A)",
		"fusion_range", "mean_err", "false_pos", "false_neg")
	for _, d := range []float64{10, 14, 20, 28, 40, 56, math.Inf(1)} {
		var errs []float64
		var fpSum, fnSum float64
		for rep := 0; rep < cf.reps; rep++ {
			e, fp, fn, err := runFusionTrial(d, cf.steps, cf.seed+uint64(rep))
			if err != nil {
				return err
			}
			errs = append(errs, e)
			fpSum += fp
			fnSum += fn
		}
		label := fmt.Sprintf("%g", d)
		if math.IsInf(d, 1) {
			label = "disabled"
		}
		if err := tb.AddRow(label, meanWindow(errs, 0), fpSum/float64(cf.reps), fnSum/float64(cf.reps)); err != nil {
			return err
		}
	}
	return tb.WriteCSV(w)
}

func runFusionTrial(d float64, steps int, seed uint64) (meanErr, fp, fn float64, err error) {
	sc := radloc.ScenarioA(50, false)
	cfg := radloc.LocalizerConfig(sc)
	cfg.Seed = seed
	if math.IsInf(d, 1) {
		cfg.DisableFusionRange = true
	} else {
		cfg.FusionRange = d
	}
	loc, err := radloc.NewLocalizer(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	stream := rng.NewNamed(seed, "ablate/fusion")
	for step := 0; step < steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			loc.Ingest(sen, m.CPM)
		}
	}
	match := radloc.Match(loc.Estimates(), sc.Sources, 40)
	return match.MeanError(), float64(match.FalsePos), float64(match.FalseNeg), nil
}

// ablateEstimator contrasts mean-shift mode extraction with the
// traditional weighted-centroid estimate.
func ablateEstimator(w io.Writer, cf commonFlags) error {
	tb := report.NewTable(
		"Ablation: estimator (two 50 µCi sources; centroid = traditional particle filter)",
		"estimator", "mean_err")
	for _, mode := range []string{"mean-shift", "centroid"} {
		var errs []float64
		for rep := 0; rep < cf.reps; rep++ {
			seed := cf.seed + uint64(rep)
			sc := radloc.ScenarioA(50, false)
			cfg := radloc.LocalizerConfig(sc)
			cfg.Seed = seed
			loc, err := radloc.NewLocalizer(cfg)
			if err != nil {
				return err
			}
			stream := rng.NewNamed(seed, "ablate/estimator")
			for step := 0; step < cf.steps; step++ {
				for _, sen := range sc.Sensors {
					m := sen.Measure(stream, sc.Sources, nil, step)
					loc.Ingest(sen, m.CPM)
				}
			}
			var e float64
			if mode == "mean-shift" {
				e = radloc.Match(loc.Estimates(), sc.Sources, 40).MeanError()
			} else {
				c := loc.Centroid()
				e = math.Min(c.Pos.Dist(sc.Sources[0].Pos), c.Pos.Dist(sc.Sources[1].Pos))
			}
			errs = append(errs, e)
		}
		if err := tb.AddRow(mode, meanWindow(errs, 0)); err != nil {
			return err
		}
	}
	return tb.WriteCSV(w)
}

// ablateScaleK sweeps the source count K over the Scenario B layout:
// per-iteration cost and accuracy must stay flat in K — the paper's
// constant-parameter-space claim.
func ablateScaleK(w io.Writer, cf commonFlags) error {
	tb := report.NewTable(
		"Ablation: source count K (Scenario B layout; flat time and error = the paper's scalability claim)",
		"sources", "mean_err", "false_pos", "false_neg", "sec_per_trial")
	full := radloc.ScenarioB(false)
	for _, k := range []int{1, 2, 3, 5, 7, 9} {
		sc := full.WithSources(full.Sources[:k])
		sc.Params.TimeSteps = cf.steps
		t0 := time.Now()
		res, err := radloc.Run(sc, radloc.RunOptions{Seed: cf.seed, Reps: cf.reps, TrialWorkers: trialWorkers()})
		if err != nil {
			return err
		}
		elapsed := time.Since(t0).Seconds() / float64(cf.reps)
		last := len(res.MeanErr) - 1
		if err := tb.AddRow(k, res.MeanErr[last], res.FalsePos[last], res.FalseNeg[last], elapsed); err != nil {
			return err
		}
	}
	return tb.WriteCSV(w)
}

// ablateFaults sweeps the per-sensor fault probability p over Scenario
// A: each sensor is independently faulted (cycling through stuck-at,
// calibration drift and byzantine spoofing) and the identical corrupted
// stream is fed to a fusion engine with the health monitor enabled and
// one with it disabled. The gap between the two columns is the payoff
// of quarantine; at p = 0 they must coincide.
func ablateFaults(w io.Writer, cf commonFlags) error {
	tb := report.NewTable(
		"Ablation: sensor fault probability p (Scenario A; stuck/drift/byzantine faults; defended = health monitor + quarantine)",
		"fault_prob", "defended_err", "undefended_err",
		"defended_fn", "undefended_fn", "mean_quarantined")
	for _, p := range []float64{0, 0.05, 0.1, 0.2, 0.3} {
		var dErrs, uErrs []float64
		var dFNSum, uFNSum, qSum float64
		for rep := 0; rep < cf.reps; rep++ {
			res, err := runFaultTrial(p, cf.steps, cf.seed+uint64(rep))
			if err != nil {
				return err
			}
			dErrs = append(dErrs, res.defendedErr)
			uErrs = append(uErrs, res.undefendedErr)
			dFNSum += float64(res.defendedFN)
			uFNSum += float64(res.undefendedFN)
			qSum += float64(res.quarantined)
		}
		reps := float64(cf.reps)
		if err := tb.AddRow(p, meanWindow(dErrs, 0), meanWindow(uErrs, 0), dFNSum/reps, uFNSum/reps, qSum/reps); err != nil {
			return err
		}
	}
	return tb.WriteCSV(w)
}

// ablateDelivery sweeps transport pathologies — at-least-once
// duplication, bounded reordering, silent drops — over Scenario A and
// feeds the identical corrupted wire stream to a fusion engine with
// the sequence gate engaged (sequenced ingest: per-sensor dedup +
// watermark reorder buffer) and one that trusts the transport (the
// paper's original assumption). The gated column should track the
// clean baseline; the ungated column pays for every duplicate and
// reordering with a distorted posterior.
func ablateDelivery(w io.Writer, cf commonFlags) error {
	tb := report.NewTable(
		"Ablation: delivery faults (Scenario A; gated = seq dedup + reorder gate, ungated = trust the transport)",
		"condition", "gated_err", "ungated_err",
		"gated_fn", "ungated_fn", "dup_suppressed")
	conds := []struct {
		name      string
		dup, drop float64
		span      int
	}{
		{"clean", 0, 0, 0},
		{"dup 30%", 0.3, 0, 0},
		{"reorder span 8", 0, 0, 8},
		{"drop 10%", 0, 0.1, 0},
		{"dup+reorder+drop", 0.3, 0.1, 8},
	}
	for _, c := range conds {
		var gErrs, uErrs []float64
		var gFNSum, uFNSum, dupSum float64
		for rep := 0; rep < cf.reps; rep++ {
			res, err := runDeliveryTrial(c.dup, c.drop, c.span, cf.steps, cf.seed+uint64(rep))
			if err != nil {
				return err
			}
			gErrs = append(gErrs, res.gatedErr)
			uErrs = append(uErrs, res.ungatedErr)
			gFNSum += float64(res.gatedFN)
			uFNSum += float64(res.ungatedFN)
			dupSum += float64(res.duplicates)
		}
		reps := float64(cf.reps)
		if err := tb.AddRow(c.name, meanWindow(gErrs, 0), meanWindow(uErrs, 0), gFNSum/reps, uFNSum/reps, dupSum/reps); err != nil {
			return err
		}
	}
	return tb.WriteCSV(w)
}

type deliveryTrialResult struct {
	gatedErr, ungatedErr float64
	gatedFN, ungatedFN   int
	duplicates           uint64
}

// runDeliveryTrial corrupts one sequenced Scenario A stream with the
// given duplicate probability, drop probability and reorder span, and
// runs the identical wire stream through a gated and an ungated
// engine.
func runDeliveryTrial(dup, drop float64, span, steps int, seed uint64) (deliveryTrialResult, error) {
	sc := scenario.A(50, false)
	measure := rng.NewNamed(seed, "ablate/delivery-measure")
	var canonical []fusion.Meas
	for step := 0; step < steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(measure, sc.Sources, nil, step)
			canonical = append(canonical, fusion.Meas{SensorID: sen.ID, CPM: m.CPM, Step: step, Seq: uint64(step + 1)})
		}
	}
	transport := rng.NewNamed(seed, "ablate/delivery-net")
	wire := make([]fusion.Meas, 0, len(canonical))
	for _, m := range canonical {
		if transport.Float64() < drop {
			continue
		}
		wire = append(wire, m)
		if transport.Float64() < dup {
			wire = append(wire, m)
		}
	}
	for i := range wire {
		if span <= 0 {
			break
		}
		j := i + transport.IntN(span)
		if j >= len(wire) {
			j = len(wire) - 1
		}
		wire[i], wire[j] = wire[j], wire[i]
	}

	gated, err := fusion.NewEngine(fusion.ScenarioConfig(sc, seed))
	if err != nil {
		return deliveryTrialResult{}, err
	}
	ungated, err := fusion.NewEngine(fusion.ScenarioConfig(sc, seed))
	if err != nil {
		return deliveryTrialResult{}, err
	}
	for _, m := range wire {
		// Dedup refusals and buffering are the point of the experiment.
		_, _ = gated.IngestSeq(m)
		_, _ = ungated.IngestSeq(fusion.Meas{SensorID: m.SensorID, CPM: m.CPM})
	}
	if _, err := gated.FlushPending(); err != nil {
		return deliveryTrialResult{}, err
	}
	gated.Refresh()
	ungated.Refresh()

	gMatch := eval.Match(gated.Snapshot().Estimates, sc.Sources, sc.Params.MatchRadius)
	uMatch := eval.Match(ungated.Snapshot().Estimates, sc.Sources, sc.Params.MatchRadius)
	return deliveryTrialResult{
		gatedErr:   gMatch.MeanError(),
		ungatedErr: uMatch.MeanError(),
		gatedFN:    gMatch.FalseNeg,
		ungatedFN:  uMatch.FalseNeg,
		duplicates: gated.Snapshot().Delivery.Duplicates,
	}, nil
}

type faultTrialResult struct {
	defendedErr, undefendedErr float64
	defendedFN, undefendedFN   int
	quarantined                int
}

// runFaultTrial faults each Scenario A sensor with probability p and
// runs the same corrupted stream through a defended and an undefended
// fusion engine.
func runFaultTrial(p float64, steps int, seed uint64) (faultTrialResult, error) {
	sc := scenario.A(50, false)
	pick := rng.NewNamed(seed, "ablate/faults-pick")
	var specs []faults.Spec
	for i := range sc.Sensors {
		if pick.Float64() >= p {
			continue
		}
		// Faults set in after the filter's warm-up (a sensor degrading
		// mid-mission); instant-onset corruption would poison the
		// posterior both engines score against before it converges.
		switch len(specs) % 3 {
		case 0:
			specs = append(specs, faults.Spec{Sensor: i, Kind: faults.StuckAt, StuckCPM: 2000, StartStep: 6})
		case 1:
			specs = append(specs, faults.Spec{Sensor: i, Kind: faults.Drift, Gain: 0.5, StartStep: 8})
		case 2:
			specs = append(specs, faults.Spec{Sensor: i, Kind: faults.Byzantine, MaxCPM: 5000, StartStep: 6})
		}
	}
	inj, err := faults.NewInjector(len(sc.Sensors), seed, specs)
	if err != nil {
		return faultTrialResult{}, err
	}

	newEngine := func(disabled bool) (*fusion.Engine, error) {
		cfg := fusion.ScenarioConfig(sc, seed)
		cfg.Health.Disabled = disabled
		return fusion.NewEngine(cfg)
	}
	defended, err := newEngine(false)
	if err != nil {
		return faultTrialResult{}, err
	}
	undefended, err := newEngine(true)
	if err != nil {
		return faultTrialResult{}, err
	}

	plan := network.InOrder(len(sc.Sensors), steps).Filter(func(ev network.Event) bool {
		return inj.Delivered(ev.SensorIndex, ev.EmitStep)
	})
	stream := rng.NewNamed(seed, "ablate/faults-measure")
	for step := 0; step < steps; step++ {
		for _, ev := range plan.EventsInStep(step) {
			sen := sc.Sensors[ev.SensorIndex]
			m := sen.Measure(stream, sc.Sources, nil, ev.EmitStep)
			cpm := inj.Transform(ev.SensorIndex, ev.EmitStep, m.CPM)
			// Quarantine refusals are the point of the experiment, not
			// an error.
			_, _ = defended.IngestSeq(fusion.Meas{SensorID: sen.ID, CPM: cpm})
			_, _ = undefended.IngestSeq(fusion.Meas{SensorID: sen.ID, CPM: cpm})
		}
	}
	defended.Refresh()
	undefended.Refresh()

	dMatch := eval.Match(defended.Snapshot().Estimates, sc.Sources, sc.Params.MatchRadius)
	uMatch := eval.Match(undefended.Snapshot().Estimates, sc.Sources, sc.Params.MatchRadius)
	return faultTrialResult{
		defendedErr:   dMatch.MeanError(),
		undefendedErr: uMatch.MeanError(),
		defendedFN:    dMatch.FalseNeg,
		undefendedFN:  uMatch.FalseNeg,
		quarantined:   len(defended.QuarantinedSensors()),
	}, nil
}
