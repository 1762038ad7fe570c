package core

import (
	"math"
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

// TestNewSourceDetectedAfterConvergence exercises Section V-E's
// provision: after the filter has converged on one source (and emptied
// the rest of the area of particles), a NEW source appearing elsewhere
// must still be detected thanks to the 5% random injection.
func TestNewSourceDetectedAfterConvergence(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sensors := sensor.Grid(bounds100(), 6, 6, sensor.DefaultEfficiency, 5)
	stream := rng.NewNamed(33, "soak/new-source")

	first := radiation.Source{Pos: geometry.V(25, 70), Strength: 60}
	second := radiation.Source{Pos: geometry.V(75, 20), Strength: 60}

	// Phase 1: long convergence on the first source alone.
	for step := 0; step < 15; step++ {
		for _, sen := range sensors {
			m := sen.Measure(stream, []radiation.Source{first}, nil, step)
			l.Ingest(sen, m.CPM)
		}
	}
	if _, d := nearestEstimate(l.Estimates(), first.Pos); d > 6 {
		t.Fatalf("phase 1 did not converge: %v", d)
	}
	// The area around the future second source should be depleted now.
	depleted := 0
	for _, p := range l.Particles() {
		if p.Pos.Dist(second.Pos) < 15 {
			depleted++
		}
	}
	if depleted > 400 {
		t.Logf("note: %d particles still near the future source", depleted)
	}

	// Phase 2: the second source appears.
	found := -1
	for step := 15; step < 40; step++ {
		truth := []radiation.Source{first, second}
		for _, sen := range sensors {
			m := sen.Measure(stream, truth, nil, step)
			l.Ingest(sen, m.CPM)
		}
		if _, d := nearestEstimate(l.Estimates(), second.Pos); d <= 6 {
			found = step
			break
		}
	}
	if found < 0 {
		t.Fatal("new source never detected after convergence")
	}
	if found > 25 {
		t.Errorf("new source took until step %d (appeared at 15), want quick detection", found)
	}
	// The first source must not have been lost in the process.
	if _, d := nearestEstimate(l.Estimates(), first.Pos); d > 6 {
		t.Errorf("first source lost while acquiring the second: %v", d)
	}
}

// TestSoakLongRunStability runs 120 steps and checks the invariants
// that keep a long-lived deployment healthy: conserved mass, bounded
// error, diversity (ESS) never collapsing.
func TestSoakLongRunStability(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sensors := sensor.Grid(bounds100(), 6, 6, sensor.DefaultEfficiency, 5)
	stream := rng.NewNamed(34, "soak/long")
	truth := []radiation.Source{
		{Pos: geometry.V(47, 71), Strength: 50},
		{Pos: geometry.V(81, 42), Strength: 50},
	}
	for step := 0; step < 120; step++ {
		for _, sen := range sensors {
			m := sen.Measure(stream, truth, nil, step)
			l.Ingest(sen, m.CPM)
		}
		if step%10 != 9 {
			continue
		}
		var mass float64
		for _, p := range l.Particles() {
			mass += p.Weight
		}
		if math.Abs(mass-1) > 1e-6 {
			t.Fatalf("step %d: mass drifted to %v", step, mass)
		}
		if ess := kishESS(t, l); ess < 100 {
			t.Fatalf("step %d: ESS collapsed to %v", step, ess)
		}
		if step >= 19 {
			ests := l.Estimates()
			for _, src := range truth {
				if _, d := nearestEstimate(ests, src.Pos); d > 10 {
					t.Fatalf("step %d: source %v error %v", step, src.Pos, d)
				}
			}
		}
	}
}
