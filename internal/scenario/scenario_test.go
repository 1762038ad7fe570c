package scenario

import (
	"strings"
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/sensor"
)

func TestScenarioAValid(t *testing.T) {
	for _, strength := range []float64{4, 10, 50, 100} {
		for _, obs := range []bool{false, true} {
			sc := A(strength, obs)
			if err := sc.Validate(); err != nil {
				t.Errorf("A(%v,%v): %v", strength, obs, err)
			}
			if len(sc.Sensors) != 36 {
				t.Errorf("A sensors = %d, want 36", len(sc.Sensors))
			}
			if len(sc.Sources) != 2 {
				t.Errorf("A sources = %d, want 2", len(sc.Sources))
			}
			if obs != (len(sc.Obstacles) == 1) {
				t.Errorf("A obstacles = %d with obs=%v", len(sc.Obstacles), obs)
			}
		}
	}
	sc := A(10, false)
	if !sc.Sources[0].Pos.Eq(geometry.V(47, 71)) || !sc.Sources[1].Pos.Eq(geometry.V(81, 42)) {
		t.Errorf("A source positions differ from the paper: %v", sc.Sources)
	}
	if sc.Params.FusionRange != 28 || sc.Params.ResampleNoise != 3.0 {
		t.Errorf("A params differ from the paper: %+v", sc.Params)
	}
}

func TestScenarioAThreeSources(t *testing.T) {
	sc := AThreeSources(50)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []geometry.Vec{geometry.V(87, 89), geometry.V(37, 14), geometry.V(55, 51)}
	if len(sc.Sources) != 3 {
		t.Fatalf("sources = %d", len(sc.Sources))
	}
	for i, w := range want {
		if !sc.Sources[i].Pos.Eq(w) {
			t.Errorf("source %d at %v, want %v", i, sc.Sources[i].Pos, w)
		}
	}
}

func TestUObstacleShieldsBetweenSources(t *testing.T) {
	sc := A(10, true)
	u := sc.Obstacles[0]
	// The ray between the two sources must pass through obstacle
	// material (that is the isolation mechanism the paper describes).
	ray := geometry.Seg(sc.Sources[0].Pos, sc.Sources[1].Pos)
	if l := u.Shape.ChordLength(ray); l <= 0 {
		t.Errorf("U obstacle does not intersect the inter-source ray (chord %v)", l)
	}
	// And the shielding must actually reduce intensity at the far
	// source's position.
	free := radiation.FreeSpaceIntensity(sc.Sources[1].Pos, sc.Sources[0])
	shielded := radiation.Intensity(sc.Sources[1].Pos, sc.Sources[0], sc.Obstacles)
	if shielded >= free {
		t.Errorf("shielded %v ≥ free %v", shielded, free)
	}
}

func TestScenarioBValid(t *testing.T) {
	sc := B(true)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sc.Sensors) != 196 {
		t.Errorf("B sensors = %d, want 196", len(sc.Sensors))
	}
	if len(sc.Sources) != 9 {
		t.Errorf("B sources = %d, want 9", len(sc.Sources))
	}
	if len(sc.Obstacles) != 3 {
		t.Errorf("B obstacles = %d, want 3", len(sc.Obstacles))
	}
	if sc.Params.NumParticles != 15000 {
		t.Errorf("B particles = %d, want 15000", sc.Params.NumParticles)
	}
	for i, src := range sc.Sources {
		if src.Strength < 10 || src.Strength > 100 {
			t.Errorf("B source %d strength %v outside 10–100", i, src.Strength)
		}
	}
	plain := B(false)
	if len(plain.Obstacles) != 0 || !strings.Contains(plain.Name, "no-obstacles") {
		t.Errorf("B(false) = %q with %d obstacles", plain.Name, len(plain.Obstacles))
	}
}

func TestScenarioCValid(t *testing.T) {
	sc := C(true, 1)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sc.Sensors) != 195 {
		t.Errorf("C sensors = %d, want 195", len(sc.Sensors))
	}
	if !sc.OutOfOrder || sc.MeanLatency <= 0 {
		t.Errorf("C delivery config: outOfOrder=%v latency=%v", sc.OutOfOrder, sc.MeanLatency)
	}
	// Layout is deterministic in the seed.
	sc2 := C(true, 1)
	for i := range sc.Sensors {
		if !sc.Sensors[i].Pos.Eq(sc2.Sensors[i].Pos) {
			t.Fatal("Scenario C layout not reproducible")
		}
	}
	sc3 := C(true, 2)
	identical := true
	for i := range sc.Sensors {
		if !sc.Sensors[i].Pos.Eq(sc3.Sensors[i].Pos) {
			identical = false
			break
		}
	}
	if identical {
		t.Error("different layout seeds produced identical Scenario C layouts")
	}
}

func TestWithModifiers(t *testing.T) {
	sc := A(10, true)

	bg := sc.WithBackground(50)
	for _, s := range bg.Sensors {
		if s.Background != 50 {
			t.Fatalf("WithBackground: sensor background %v", s.Background)
		}
	}
	if sc.Sensors[0].Background != 5 {
		t.Error("WithBackground mutated the receiver")
	}

	srcs := []radiation.Source{{Pos: geometry.V(10, 10), Strength: 7}}
	one := sc.WithSources(srcs)
	if len(one.Sources) != 1 || len(sc.Sources) != 2 {
		t.Error("WithSources wrong")
	}
	srcs[0].Strength = 99
	if one.Sources[0].Strength == 99 {
		t.Error("WithSources shares caller slice")
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	base := A(10, false)

	tests := []struct {
		name   string
		mutate func(*Scenario)
	}{
		{"no-sensors", func(s *Scenario) { s.Sensors = nil }},
		{"zero-particles", func(s *Scenario) { s.Params.NumParticles = 0 }},
		{"bad-fusion-range", func(s *Scenario) { s.Params.FusionRange = 0 }},
		{"zero-steps", func(s *Scenario) { s.Params.TimeSteps = 0 }},
		{"negative-strength", func(s *Scenario) { s.Sources[0].Strength = -1 }},
		{"source-outside", func(s *Scenario) { s.Sources[0].Pos = geometry.V(500, 500) }},
		{"bad-efficiency", func(s *Scenario) { s.Sensors[0].Efficiency = 0 }},
		{"empty-bounds", func(s *Scenario) { s.Bounds = geometry.NewRect(geometry.V(0, 0), geometry.V(0, 0)) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			sc := base
			sc.Sensors = append([]sensor.Sensor(nil), base.Sensors...)
			sc.Sources = append([]radiation.Source(nil), base.Sources...)
			tt.mutate(&sc)
			if err := sc.Validate(); err == nil {
				t.Error("Validate accepted a bad config")
			}
		})
	}
}
