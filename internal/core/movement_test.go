package core

import (
	"math"
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

func TestRandomWalkMove(t *testing.T) {
	stream := rng.New(1, 1)
	rw := RandomWalk{Sigma: 2}
	moved := 0
	for i := 0; i < 100; i++ {
		p, s := rw.Move(geometry.V(50, 50), 10, stream)
		if s != 10 {
			t.Fatalf("random walk changed strength: %v", s)
		}
		if !p.Eq(geometry.V(50, 50)) {
			moved++
		}
	}
	if moved < 95 {
		t.Errorf("random walk barely moves: %d/100", moved)
	}
	// Zero sigma is the identity.
	p, s := RandomWalk{}.Move(geometry.V(1, 2), 3, stream)
	if !p.Eq(geometry.V(1, 2)) || s != 3 {
		t.Errorf("zero-sigma walk moved: %v %v", p, s)
	}
}

func TestConstantVelocityMove(t *testing.T) {
	stream := rng.New(2, 2)
	cv := ConstantVelocity{V: geometry.V(1, -0.5)}
	p, s := cv.Move(geometry.V(10, 10), 7, stream)
	if !p.Eq(geometry.V(11, 9.5)) || s != 7 {
		t.Errorf("constant velocity: %v %v", p, s)
	}
}

func TestMovementFuncAdapter(t *testing.T) {
	var m MovementModel = MovementFunc(func(p geometry.Vec, s float64, _ *rng.Stream) (geometry.Vec, float64) {
		return p.Add(geometry.V(5, 0)), s * 2
	})
	p, s := m.Move(geometry.V(0, 0), 3, nil)
	if !p.Eq(geometry.V(5, 0)) || s != 6 {
		t.Errorf("adapter: %v %v", p, s)
	}
}

// TestTracksMovingSource drives a source across the area; the filter
// with a random-walk movement model must keep its estimate near the
// moving truth.
func TestTracksMovingSource(t *testing.T) {
	cfg := testConfig()
	cfg.Movement = RandomWalk{Sigma: 1.0}
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sensors := sensor.Grid(bounds100(), 6, 6, sensor.DefaultEfficiency, 5)
	stream := rng.NewNamed(21, "moving/measure")

	pos := geometry.V(20, 30)
	vel := geometry.V(1.5, 1.0) // per time step
	var lastErr float64 = math.NaN()
	for step := 0; step < 25; step++ {
		truth := []radiation.Source{{Pos: pos, Strength: 100}}
		for _, sen := range sensors {
			m := sen.Measure(stream, truth, nil, step)
			l.Ingest(sen, m.CPM)
		}
		if step >= 5 {
			ests := l.Estimates()
			if len(ests) == 0 {
				t.Fatalf("step %d: no estimates while tracking", step)
			}
			_, d := nearestEstimate(ests, pos)
			lastErr = d
			if d > 15 {
				t.Fatalf("step %d: tracking error %v (truth at %v)", step, d, pos)
			}
		}
		pos = pos.Add(vel)
	}
	if lastErr > 8 {
		t.Errorf("final tracking error %v, want ≤ 8", lastErr)
	}
}

// TestMovementOnlyAppliedWithinFusionRange: particles outside the
// fusion disc must not be moved by the prediction step.
func TestMovementOnlyAppliedWithinFusionRange(t *testing.T) {
	cfg := testConfig()
	cfg.Movement = RandomWalk{Sigma: 5}
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sen := sensor.Sensor{ID: 0, Pos: geometry.V(10, 10), Efficiency: 1e-4, Background: 5}
	before := l.Particles()
	l.Ingest(sen, 5)
	after := l.Particles()
	for i := range before {
		if before[i].Pos.Dist(sen.Pos) > cfg.withDefaults().FusionRange {
			if !before[i].Pos.Eq(after[i].Pos) {
				t.Fatalf("particle %d outside fusion range was moved", i)
			}
		}
	}
}
