package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"radloc/internal/core"
	"radloc/internal/eval"
	"radloc/internal/fusion"
	"radloc/internal/scenario"
	"radloc/internal/sim"
	"radloc/internal/track"
)

// referenceEngine is a fusion engine built exactly as the node builds
// each zone's engine, without journal or metrics.
func referenceEngine(sc scenario.Scenario, seed uint64) (*fusion.Engine, error) {
	cfg := fusion.Config{
		Localizer: sim.LocalizerConfig(sc),
		Sensors:   sc.Sensors,
		Tracking:  &track.Config{},
	}
	cfg.Localizer.Seed = seed
	return fusion.NewEngine(cfg)
}

// reference is one zone's expected outcome: the final estimates after
// every delivered batch, and the estimates after the quality point.
type reference struct {
	final, quality []core.Estimate
}

// replayReference feeds a reference engine the batches the zone was
// delivered — its warm steps, then the measured batches acknowledged in
// the window, without the crash and the redelivery — and records the
// estimates after qualityAt measured batches and at the end.
func replayReference(sc scenario.Scenario, seed uint64, warm []step, measured []sendBatch, qualityAt int) (reference, error) {
	var ref reference
	e, err := referenceEngine(sc, seed)
	if err != nil {
		return ref, err
	}
	ctx := context.Background()
	for _, st := range warm {
		for _, b := range st {
			if _, err := e.Submit(ctx, meas(b)); err != nil {
				return ref, err
			}
		}
	}
	for i, sb := range measured {
		if i == qualityAt {
			ref.quality = e.Snapshot().Estimates
		}
		if _, err := e.Submit(ctx, meas(sb.readings)); err != nil {
			return ref, err
		}
	}
	ref.final = e.Snapshot().Estimates
	if ref.quality == nil {
		ref.quality = ref.final
	}
	return ref, nil
}

// checkResult is the correctness gate's verdict plus the localization
// quality scored against the scenario's true sources.
type checkResult struct {
	mismatches []string
	locErr     float64 // mean over zones of the mean matched-source error
	falsePos   int     // summed over zones
	falseNeg   int
}

// checkZones replays every zone's reference concurrently and compares
// the node's final served estimates with it bit for bit.
func checkZones(sc scenario.Scenario, seed uint64, warm [][]step, measured [][]sendBatch, qualityAt []int, served [][]estimateJSON) (checkResult, error) {
	refs := make([]reference, len(warm))
	errs := make([]error, len(warm))
	var wg sync.WaitGroup
	for z := range warm {
		wg.Add(1)
		go func(z int) {
			defer wg.Done()
			refs[z], errs[z] = replayReference(sc, seed, warm[z], measured[z], qualityAt[z])
		}(z)
	}
	wg.Wait()
	var res checkResult
	var errSum float64
	for z, ref := range refs {
		if errs[z] != nil {
			return res, errs[z]
		}
		res.mismatches = append(res.mismatches, compareEstimates(z, served[z], ref.final)...)
		m := eval.Match(ref.quality, sc.Sources, sc.Params.MatchRadius)
		errSum += m.MeanError()
		res.falsePos += m.FalsePos
		res.falseNeg += m.FalseNeg
	}
	res.locErr = errSum / float64(len(refs))
	return res, nil
}

// compareEstimates reports every field of the served estimates that is
// not bit-identical to the reference.
func compareEstimates(z int, got []estimateJSON, want []core.Estimate) []string {
	if len(got) != len(want) {
		return []string{fmt.Sprintf("zone %d: %d estimates served, reference has %d", z, len(got), len(want))}
	}
	var out []string
	for i, w := range want {
		g := got[i]
		pairs := [][2]float64{{g.X, w.Pos.X}, {g.Y, w.Pos.Y}, {g.StrengthUCi, w.Strength}, {g.Mass, w.Mass}}
		for f, p := range pairs {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				out = append(out, fmt.Sprintf("zone %d estimate %d field %d: served %v, reference %v", z, i, f, p[0], p[1]))
			}
		}
	}
	return out
}
