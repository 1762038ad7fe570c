package fusion

import (
	"errors"
	"math"
	"testing"

	"radloc/internal/rng"
	"radloc/internal/scenario"
)

// healthTestEngine builds an engine over Scenario A with a fast-acting
// monitor so unit tests don't need long streams.
func healthTestEngine(t *testing.T, disabled bool) (*Engine, scenario.Scenario) {
	t.Helper()
	sc := scenario.A(50, false)
	cfg := ScenarioConfig(sc, 11)
	cfg.Health = HealthConfig{
		Disabled:        disabled,
		ZThreshold:      5,
		QuarantineAfter: 3,
		ProbationGood:   4,
		Warmup:          1,
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, sc
}

// warmUp feeds `rounds` clean sensor rounds so the engine has a
// converged posterior to score against.
func warmUp(t *testing.T, e *Engine, sc scenario.Scenario, rounds int, seed uint64) {
	t.Helper()
	stream := rng.NewNamed(seed, "fusion-health/warmup")
	for step := 0; step < rounds; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			if _, err := e.IngestSeq(Meas{SensorID: sen.ID, CPM: m.CPM}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCeilingRejected(t *testing.T) {
	e, _ := healthTestEngine(t, false)
	if _, err := e.IngestSeq(Meas{SensorID: 0, CPM: MaxCPM + 1}); !errors.Is(err, ErrBadMeasurement) {
		t.Errorf("absurd CPM: %v", err)
	}
	if _, err := e.IngestSeq(Meas{SensorID: 0, CPM: -1}); !errors.Is(err, ErrBadMeasurement) {
		t.Errorf("negative CPM: %v", err)
	}
	if snap := e.Snapshot(); snap.Rejected != 2 || snap.Ingested != 0 {
		t.Errorf("counters after bad readings: ingested %d rejected %d", snap.Ingested, snap.Rejected)
	}
}

func TestQuarantineAndProbation(t *testing.T) {
	e, sc := healthTestEngine(t, false)
	warmUp(t, e, sc, 4, 21)

	// Sensor 0 sits at (0,0), far from both sources: expected ≈ 5 CPM
	// background. 5000 CPM is wildly implausible.
	const faulty = 0
	var lastErr error
	for i := 0; i < 3; i++ {
		_, lastErr = e.IngestSeq(Meas{SensorID: faulty, CPM: 5000})
	}
	if !errors.Is(lastErr, ErrQuarantined) {
		t.Fatalf("after 3 implausible readings: %v", lastErr)
	}
	snap := e.Snapshot()
	if snap.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", snap.Quarantined)
	}
	var rec SensorHealth
	for _, h := range snap.Health {
		if h.SensorID == faulty {
			rec = h
		}
	}
	if rec.Status != Quarantined || rec.Quarantines != 1 || rec.Dropped == 0 {
		t.Errorf("faulty sensor record: %+v", rec)
	}
	if got := e.QuarantinedSensors(); len(got) != 1 || got[0] != faulty {
		t.Errorf("QuarantinedSensors() = %v", got)
	}

	// While quarantined, further wild readings stay out of the filter.
	before := e.Snapshot().Ingested
	if _, err := e.IngestSeq(Meas{SensorID: faulty, CPM: 5000}); !errors.Is(err, ErrQuarantined) {
		t.Errorf("quarantined reading: %v", err)
	}
	if e.Snapshot().Ingested != before {
		t.Error("quarantined reading was folded into the filter")
	}

	// Probation: plausible (≈ background) readings re-admit the sensor.
	for i := 0; i < 4; i++ {
		if _, err := e.IngestSeq(Meas{SensorID: faulty, CPM: 5}); i < 3 && !errors.Is(err, ErrQuarantined) {
			t.Errorf("probation reading %d: %v", i, err)
		}
	}
	if got := e.QuarantinedSensors(); len(got) != 0 {
		t.Errorf("sensor not re-admitted after probation: %v", got)
	}
	// Re-admitted sensors count into the filter again.
	before = e.Snapshot().Ingested
	if _, err := e.IngestSeq(Meas{SensorID: faulty, CPM: 5}); err != nil {
		t.Errorf("re-admitted reading: %v", err)
	}
	if e.Snapshot().Ingested != before+1 {
		t.Error("re-admitted reading not folded into the filter")
	}
}

func TestImplausibleStreakResets(t *testing.T) {
	e, sc := healthTestEngine(t, false)
	warmUp(t, e, sc, 4, 22)
	// Implausible readings interleaved with plausible ones never build
	// the consecutive streak, so the sensor stays healthy — burst noise
	// does not cost a sensor its seat. (Kept below one refresh interval
	// so the scored posterior stays fixed for the whole loop.)
	for i := 0; i < 5; i++ {
		if _, err := e.IngestSeq(Meas{SensorID: 0, CPM: 5000}); err != nil {
			t.Fatalf("burst reading %d: %v", i, err)
		}
		if _, err := e.IngestSeq(Meas{SensorID: 0, CPM: 5}); err != nil {
			t.Fatalf("clean reading %d: %v", i, err)
		}
	}
	if got := e.QuarantinedSensors(); len(got) != 0 {
		t.Errorf("intermittent bursts quarantined sensor: %v", got)
	}
}

// TestLeakyStreakSurvivesBlip: a sensor lying hard enough can grow a
// phantom source at its own position, making the occasional corrupt
// reading score as plausible against the self-poisoned posterior. One
// such blip must not erase the accumulated streak (it decays by one,
// not to zero), or persistent liars would evade quarantine forever.
func TestLeakyStreakSurvivesBlip(t *testing.T) {
	e, sc := healthTestEngine(t, false)
	warmUp(t, e, sc, 4, 25)
	// QuarantineAfter is 3: bad bad GOOD bad bad walks the streak
	// 1,2,1,2,3 and quarantines on the fifth reading.
	for i, cpm := range []int{5000, 5000, 5, 5000} {
		if _, err := e.IngestSeq(Meas{SensorID: 0, CPM: cpm}); err != nil {
			t.Fatalf("reading %d: %v", i, err)
		}
	}
	if _, err := e.IngestSeq(Meas{SensorID: 0, CPM: 5000}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("fifth reading after blip: %v", err)
	}
	if got := e.QuarantinedSensors(); len(got) != 1 || got[0] != 0 {
		t.Errorf("QuarantinedSensors() = %v, want [0]", got)
	}
}

func TestHealthDisabledTrustsEverything(t *testing.T) {
	e, sc := healthTestEngine(t, true)
	warmUp(t, e, sc, 4, 23)
	for i := 0; i < 20; i++ {
		if _, err := e.IngestSeq(Meas{SensorID: 0, CPM: 5000}); err != nil {
			t.Fatalf("disabled monitor rejected reading: %v", err)
		}
	}
	snap := e.Snapshot()
	if snap.Quarantined != 0 {
		t.Errorf("disabled monitor quarantined %d sensors", snap.Quarantined)
	}
	for _, h := range snap.Health {
		if h.SensorID == 0 && h.Seen == 0 {
			t.Error("health bookkeeping stopped while disabled")
		}
	}
}

func TestHealthStatusString(t *testing.T) {
	if Healthy.String() != "healthy" || Quarantined.String() != "quarantined" {
		t.Error("status names wrong")
	}
	if HealthStatus(9).String() != "unknown" {
		t.Error("unknown status string")
	}
}

func TestSnapshotHealthSortedAndNaN(t *testing.T) {
	e, sc := healthTestEngine(t, false)
	snap := e.Snapshot()
	if len(snap.Health) != len(sc.Sensors) {
		t.Fatalf("health records = %d, want %d", len(snap.Health), len(sc.Sensors))
	}
	for i, h := range snap.Health {
		if h.SensorID != i {
			t.Fatalf("health not sorted by ID: %v at %d", h.SensorID, i)
		}
		if !math.IsNaN(h.LastZ) {
			t.Errorf("sensor %d scored before any reading: z = %v", i, h.LastZ)
		}
	}
}
