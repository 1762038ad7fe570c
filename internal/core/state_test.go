package core

import (
	"encoding/json"
	"reflect"
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

func stateTestConfig() Config {
	return Config{
		Bounds:       geometry.NewRect(geometry.V(0, 0), geometry.V(100, 100)),
		NumParticles: 400,
		MaxSensorGap: 40,
		Seed:         11,
	}
}

func stateTestSensors() []sensor.Sensor {
	var out []sensor.Sensor
	id := 0
	for x := 10.0; x < 100; x += 30 {
		for y := 10.0; y < 100; y += 30 {
			out = append(out, sensor.Sensor{ID: id, Pos: geometry.V(x, y), Efficiency: 1, Background: 30})
			id++
		}
	}
	return out
}

// TestStateRoundTripDeterminism is the recovery invariant at the
// localizer level: ingest K measurements, export, import into a fresh
// localizer, continue both with the identical suffix — the particle
// populations and estimates must match exactly.
func TestStateRoundTripDeterminism(t *testing.T) {
	sens := stateTestSensors()
	sources := []radiation.Source{{Pos: geometry.V(30, 60), Strength: 50}}
	measure := rng.NewNamed(3, "core-state/measure")
	type reading struct {
		sen sensor.Sensor
		cpm int
	}
	var readings []reading
	for step := 0; step < 12; step++ {
		for _, sen := range sens {
			m := sen.Measure(measure, sources, nil, step)
			readings = append(readings, reading{sen, m.CPM})
		}
	}

	orig, err := NewLocalizer(stateTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	split := len(readings) / 2
	for _, r := range readings[:split] {
		orig.Ingest(r.sen, r.cpm)
	}
	st, err := orig.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	// Through JSON, as a checkpoint would store it.
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var st2 State
	if err := json.Unmarshal(blob, &st2); err != nil {
		t.Fatal(err)
	}

	restored, err := NewLocalizer(stateTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.ImportState(st2); err != nil {
		t.Fatal(err)
	}

	for _, r := range readings[split:] {
		orig.Ingest(r.sen, r.cpm)
		restored.Ingest(r.sen, r.cpm)
	}
	if a, b := exportState(t, orig).Iter, exportState(t, restored).Iter; a != b {
		t.Fatalf("iterations diverged: %d vs %d", a, b)
	}
	a, b := orig.Particles(), restored.Particles()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("particle populations diverged after state round-trip")
	}
	ea, eb := orig.Estimates(), restored.Estimates()
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("estimates diverged: %v vs %v", ea, eb)
	}
}

func TestImportStateRejectsMismatch(t *testing.T) {
	l, err := NewLocalizer(stateTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := l.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	cfg := stateTestConfig()
	cfg.NumParticles = 10
	small, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.ImportState(st); err == nil {
		t.Fatal("particle-count mismatch accepted")
	}

	bad := st
	bad.Xs = append([]float64(nil), st.Xs...)
	bad.Xs[3] = nan()
	if err := l.ImportState(bad); err == nil {
		t.Fatal("NaN particle accepted")
	}

	badRNG := st
	badRNG.RNG = []byte("nope")
	if err := l.ImportState(badRNG); err == nil {
		t.Fatal("corrupt RNG state accepted")
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}
