package core

import (
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
)

func TestSeededPriorConcentratesParticles(t *testing.T) {
	cfg := testConfig()
	center := geometry.V(47, 71)
	cfg.Init = SeededPrior([]geometry.Vec{center}, 8, 0.8, cfg.Bounds, 0.1, 200)
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	near := 0
	for _, p := range l.Particles() {
		if !bounds100().Contains(p.Pos) {
			t.Fatalf("seeded particle out of bounds: %v", p.Pos)
		}
		if p.Strength < 0.1 || p.Strength > 200 {
			t.Fatalf("seeded strength out of prior: %v", p.Strength)
		}
		if p.Pos.Dist(center) < 20 {
			near++
		}
	}
	// ~80% seeded with σ=8 → most of those within 20 of the center;
	// uniform would put only ~12% there.
	if near < 1000 {
		t.Errorf("only %d/2000 particles near the prior center", near)
	}
}

func TestSeededPriorEmptyCentersIsUniform(t *testing.T) {
	cfg := testConfig()
	cfg.Init = SeededPrior(nil, 8, 0.8, cfg.Bounds, 0.1, 200)
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var quad [4]int
	for _, p := range l.Particles() {
		qi := 0
		if p.Pos.X > 50 {
			qi++
		}
		if p.Pos.Y > 50 {
			qi += 2
		}
		quad[qi]++
	}
	for q, n := range quad {
		if n < 350 || n > 650 {
			t.Errorf("quadrant %d holds %d/2000 — not uniform", q, n)
		}
	}
}

func TestSeededPriorClampsDegenerateArgs(t *testing.T) {
	s := rng.New(1, 1)
	b := bounds100()
	// Negative fraction and sigma fall back to sane values.
	f := SeededPrior([]geometry.Vec{geometry.V(50, 50)}, -1, -2, b, 0.1, 200)
	pos, str := f(s)
	if str < 0.1 || str > 200 {
		t.Errorf("strength %v", str)
	}
	_ = pos
	// Fraction > 1 clamps to all-seeded.
	f = SeededPrior([]geometry.Vec{geometry.V(50, 50)}, 5, 7, b, 0.1, 200)
	for i := 0; i < 50; i++ {
		p, _ := f(s)
		if p.Dist(geometry.V(50, 50)) > 40 {
			t.Fatalf("all-seeded draw far from center: %v", p)
		}
	}
}

// TestSeededPriorSpeedsConvergence: with particles seeded near the true
// sources (as prior knowledge of likely locations would provide), the first-step
// estimate is already accurate — the paper's stated benefit.
func TestSeededPriorSpeedsConvergence(t *testing.T) {
	truth := []radiation.Source{
		{Pos: geometry.V(47, 71), Strength: 50},
		{Pos: geometry.V(81, 42), Strength: 50},
	}
	firstStepErr := func(seeded bool) float64 {
		cfg := testConfig()
		if seeded {
			cfg.Init = SeededPrior(
				[]geometry.Vec{geometry.V(40, 70), geometry.V(80, 40)}, // approx trigger locations
				10, 0.7, cfg.Bounds, 0.1, 200)
		}
		l, err := NewLocalizer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runSteps(t, l, truth, nil, 1, 23)
		ests := l.Estimates()
		var worst float64
		for _, src := range truth {
			_, d := nearestEstimate(ests, src.Pos)
			if d > worst {
				worst = d
			}
		}
		return worst
	}
	seeded := firstStepErr(true)
	if seeded > 8 {
		t.Errorf("seeded first-step worst error = %v, want ≤ 8", seeded)
	}
}
