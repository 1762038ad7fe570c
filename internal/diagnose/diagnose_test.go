package diagnose

import (
	"errors"
	"math"
	"testing"

	"radloc/internal/core"
	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

// gather sums `steps` rounds of readings per sensor.
func gather(t *testing.T, sensors []sensor.Sensor, sources []radiation.Source, obstacles []radiation.Obstacle, steps int, seed uint64) []Reading {
	t.Helper()
	stream := rng.NewNamed(seed, "diagnose-test")
	out := make([]Reading, len(sensors))
	for i, sen := range sensors {
		out[i] = Reading{Sensor: sen, Count: steps}
		for step := 0; step < steps; step++ {
			out[i].TotalCPM += sen.Measure(stream, sources, obstacles, step).CPM
		}
	}
	return out
}

func estimatesFromSources(srcs []radiation.Source) []core.Estimate {
	out := make([]core.Estimate, len(srcs))
	for i, s := range srcs {
		out[i] = core.Estimate{Pos: s.Pos, Strength: s.Strength, Mass: 0.3}
	}
	return out
}

func grid36() []sensor.Sensor {
	b := geometry.NewRect(geometry.V(0, 0), geometry.V(100, 100))
	return sensor.Grid(b, 6, 6, sensor.DefaultEfficiency, 5)
}

func TestCheckWellSpecifiedModel(t *testing.T) {
	sources := []radiation.Source{
		{Pos: geometry.V(47, 71), Strength: 50},
		{Pos: geometry.V(81, 42), Strength: 50},
	}
	readings := gather(t, grid36(), sources, nil, 20, 1)
	rep, err := Check(readings, estimatesFromSources(sources), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect model: residuals at the Poisson noise floor.
	if rep.RMSZ > 1.6 {
		t.Errorf("RMSZ = %v for a correct model, want ≈1", rep.RMSZ)
	}
	if len(rep.Suspicious) > 1 {
		t.Errorf("suspicious sensors on a correct model: %v", rep.Suspicious)
	}
	if len(rep.Residuals) != 36 {
		t.Fatalf("residuals = %d", len(rep.Residuals))
	}
	// Sorted by |Z| descending.
	for i := 1; i < len(rep.Residuals); i++ {
		if math.Abs(rep.Residuals[i].Z) > math.Abs(rep.Residuals[i-1].Z)+1e-12 {
			t.Fatal("residuals not sorted by |Z|")
		}
	}
}

func TestCheckDetectsObstacleShadow(t *testing.T) {
	sources := []radiation.Source{{Pos: geometry.V(30, 50), Strength: 100}}
	// A thick wall east of the source shadows the sensors behind it.
	wall := radiation.Obstacle{
		Shape: geometry.MustPolygon([]geometry.Vec{geometry.V(45, 20), geometry.V(50, 20), geometry.V(50, 80), geometry.V(45, 80)}),
		Mu:    radiation.Concrete.MustMu(),
		Name:  "hidden wall",
	}
	readings := gather(t, grid36(), sources, []radiation.Obstacle{wall}, 20, 2)
	rep, err := Check(readings, estimatesFromSources(sources), 3)
	if err != nil {
		t.Fatal(err)
	}
	shadowed := rep.ShadowedSensors(3)
	if len(shadowed) == 0 {
		t.Fatal("no shadowed sensors found behind the hidden wall")
	}
	// Every strongly-negative residual must be east of the wall (the
	// shadow side).
	for _, res := range shadowed {
		if res.Pos.X < 50 {
			t.Errorf("sensor %d at %v flagged as shadowed but is not behind the wall (Z=%.1f)",
				res.SensorID, res.Pos, res.Z)
		}
	}
	if rep.RMSZ < 1.5 {
		t.Errorf("RMSZ = %v with a hidden obstacle, want clearly > 1", rep.RMSZ)
	}
}

func TestCheckDetectsMissedSource(t *testing.T) {
	sources := []radiation.Source{
		{Pos: geometry.V(47, 71), Strength: 50},
		{Pos: geometry.V(81, 42), Strength: 50},
	}
	readings := gather(t, grid36(), sources, nil, 20, 3)
	// The model only explains the first source: sensors near the
	// second read far MORE than predicted (positive residuals).
	rep, err := Check(readings, estimatesFromSources(sources[:1]), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suspicious) == 0 {
		t.Fatal("missed source not flagged")
	}
	top := rep.Residuals[0]
	if top.Z < 3 {
		t.Errorf("top residual Z = %v, want strongly positive", top.Z)
	}
	if top.Pos.Dist(sources[1].Pos) > 30 {
		t.Errorf("top residual at %v is not near the missed source %v", top.Pos, sources[1].Pos)
	}
}

func TestCheckErrorsAndDefaults(t *testing.T) {
	if _, err := Check(nil, nil, 3); !errors.Is(err, ErrNoData) {
		t.Errorf("no data: %v", err)
	}
	// Count ≤ 0 is treated as one interval, not a division by zero.
	r := []Reading{{Sensor: grid36()[0], TotalCPM: 5, Count: 0}}
	rep, err := Check(r, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.Residuals[0].Z) || math.IsInf(rep.Residuals[0].Z, 0) {
		t.Errorf("degenerate count produced Z = %v", rep.Residuals[0].Z)
	}
}
