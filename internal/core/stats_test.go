package core

import (
	"math"
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/sensor"
)

// exportState is l's exported state; the iteration counters the
// stats tests read live there.
func exportState(t *testing.T, l *Localizer) State {
	t.Helper()
	st, err := l.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// kishESS is Kish's effective sample size (Σw)²/Σw² of l's current
// weights: near the population size for healthy diversity, collapsing
// toward 1 on degeneracy.
func kishESS(t *testing.T, l *Localizer) float64 {
	t.Helper()
	var sum, sum2 float64
	for _, w := range exportState(t, l).Ws {
		if w > 0 {
			sum += w
			sum2 += w * w
		}
	}
	if sum2 == 0 {
		return 0
	}
	return sum * sum / sum2
}

func TestStatsFreshLocalizer(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := exportState(t, l)
	if s.Iter != 0 || s.LastSubset != 0 || s.SubsetTotal != 0 || s.EmptyIters != 0 {
		t.Errorf("fresh counters: iter %d, last subset %d, subset total %d, empty %d", s.Iter, s.LastSubset, s.SubsetTotal, s.EmptyIters)
	}
	// Uniform weights: ESS equals the population size.
	if ess := kishESS(t, l); math.Abs(ess-2000) > 1 {
		t.Errorf("fresh ESS = %v, want ≈2000", ess)
	}
	if len(s.SensorPos) != 0 {
		t.Errorf("%d sensors registered without MaxSensorGap", len(s.SensorPos))
	}
}

func TestStatsTrackIterations(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSensorGap = 50
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inRange := sensor.Sensor{ID: 0, Pos: geometry.V(50, 50), Efficiency: 1e-4, Background: 5}
	outOfArea := sensor.Sensor{ID: 1, Pos: geometry.V(-500, -500), Efficiency: 1e-4, Background: 5}

	l.Ingest(inRange, 5)
	s := exportState(t, l)
	if s.Iter != 1 || s.LastSubset == 0 || s.EmptyIters != 0 {
		t.Errorf("after one in-range ingest: iter %d, last subset %d, empty %d", s.Iter, s.LastSubset, s.EmptyIters)
	}
	first := s.LastSubset

	l.Ingest(outOfArea, 5)
	s = exportState(t, l)
	if s.Iter != 2 || s.LastSubset != 0 || s.EmptyIters != 1 {
		t.Errorf("after empty-disc ingest: iter %d, last subset %d, empty %d", s.Iter, s.LastSubset, s.EmptyIters)
	}
	if s.SubsetTotal != int64(first) {
		t.Errorf("subset total = %d, want %d", s.SubsetTotal, first)
	}
	if len(s.SensorPos) != 2 {
		t.Errorf("%d sensors registered, want 2", len(s.SensorPos))
	}
}

// TestStatsSubsetShrinksAfterConvergence: the paper's efficiency story —
// once particles concentrate at the sources, most fusion discs capture
// few particles, so the mean subset size drops well below the uniform
// expectation.
func TestStatsSubsetShrinks(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	truth := []radiation.Source{{Pos: geometry.V(47, 71), Strength: 100}}
	runSteps(t, l, truth, nil, 10, 31)

	// Uniform expectation: disc area fraction × N ≈ π·28²/10⁴ × 2000 ≈ 430
	// (boundary effects push it lower). After convergence, a sensor far
	// from the source should capture almost nothing.
	far := sensor.Sensor{ID: 99, Pos: geometry.V(5, 5), Efficiency: 1e-4, Background: 5}
	l.Ingest(far, 5)
	if last := exportState(t, l).LastSubset; last > 300 {
		t.Errorf("far-sensor subset = %d after convergence, want small", last)
	}
	if ess := kishESS(t, l); ess < 100 {
		t.Errorf("ESS collapsed to %v", ess)
	}
}
