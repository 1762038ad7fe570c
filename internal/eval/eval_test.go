package eval

import (
	"math"
	"testing"

	"radloc/internal/core"
	"radloc/internal/geometry"
	"radloc/internal/radiation"
)

func est(x, y float64) core.Estimate {
	return core.Estimate{Pos: geometry.V(x, y), Strength: 10, Mass: 0.1}
}

func src(x, y float64) radiation.Source {
	return radiation.Source{Pos: geometry.V(x, y), Strength: 10}
}

func TestMatchPerfect(t *testing.T) {
	m := Match(
		[]core.Estimate{est(47, 72), est(80, 42)},
		[]radiation.Source{src(47, 71), src(81, 42)},
		40,
	)
	if m.FalsePos != 0 || m.FalseNeg != 0 {
		t.Errorf("FP=%d FN=%d, want 0,0", m.FalsePos, m.FalseNeg)
	}
	if math.Abs(m.Err[0]-1) > 1e-9 || math.Abs(m.Err[1]-1) > 1e-9 {
		t.Errorf("errors = %v, want [1 1]", m.Err)
	}
	if m.EstOf[0] != 0 || m.EstOf[1] != 1 {
		t.Errorf("assignment = %v", m.EstOf)
	}
}

func TestMatchOneToOne(t *testing.T) {
	// One estimate near two sources: it may explain only one; the other
	// source is a false negative.
	m := Match(
		[]core.Estimate{est(50, 50)},
		[]radiation.Source{src(52, 50), src(46, 50)},
		40,
	)
	if m.FalseNeg != 1 {
		t.Errorf("FN = %d, want 1", m.FalseNeg)
	}
	if m.FalsePos != 0 {
		t.Errorf("FP = %d, want 0", m.FalsePos)
	}
	// The estimate goes to the closer source (distance 2, not 4).
	if math.IsNaN(m.Err[0]) || math.Abs(m.Err[0]-2) > 1e-9 {
		t.Errorf("matched error = %v, want 2", m.Err[0])
	}
	if !math.IsNaN(m.Err[1]) {
		t.Errorf("unmatched source has error %v, want NaN", m.Err[1])
	}
}

func TestMatchRadiusCutoff(t *testing.T) {
	m := Match(
		[]core.Estimate{est(0, 0)},
		[]radiation.Source{src(0, 41)},
		40,
	)
	if m.FalsePos != 1 || m.FalseNeg != 1 {
		t.Errorf("FP=%d FN=%d, want 1,1 (distance 41 > radius 40)", m.FalsePos, m.FalseNeg)
	}
}

func TestMatchGreedyGlobalOrder(t *testing.T) {
	// est0 is close to src0 (d=1) and src1 (d=3); est1 only near src0
	// (d=2). Greedy global pairing: (est0,src0,d=1), then est1 cannot
	// take src0, src1 takes est... est1 is at distance sqrt(5²+?)...
	// Construct so the naive per-source nearest would double-book est0.
	estimates := []core.Estimate{est(50, 50), est(48, 50)}
	sources := []radiation.Source{src(51, 50), src(53, 50)}
	m := Match(estimates, sources, 40)
	if m.FalsePos != 0 || m.FalseNeg != 0 {
		t.Fatalf("FP=%d FN=%d", m.FalsePos, m.FalseNeg)
	}
	// d(e0,s0)=1 wins first; then s1 must take e1 (d=5).
	if m.EstOf[0] != 0 || m.EstOf[1] != 1 {
		t.Errorf("assignment = %v, want [0 1]", m.EstOf)
	}
	if math.Abs(m.Err[1]-5) > 1e-9 {
		t.Errorf("err[1] = %v, want 5", m.Err[1])
	}
}

func TestMatchEmptyInputs(t *testing.T) {
	m := Match(nil, []radiation.Source{src(1, 1)}, 40)
	if m.FalseNeg != 1 || m.FalsePos != 0 {
		t.Errorf("no estimates: FP=%d FN=%d", m.FalsePos, m.FalseNeg)
	}
	m = Match([]core.Estimate{est(1, 1)}, nil, 40)
	if m.FalsePos != 1 || m.FalseNeg != 0 {
		t.Errorf("no sources: FP=%d FN=%d", m.FalsePos, m.FalseNeg)
	}
	m = Match(nil, nil, 40)
	if m.FalsePos != 0 || m.FalseNeg != 0 || len(m.Err) != 0 {
		t.Errorf("empty: %+v", m)
	}
}

func TestMeanError(t *testing.T) {
	m := Matching{Err: []float64{2, math.NaN(), 4}}
	if got := m.MeanError(); math.Abs(got-3) > 1e-12 {
		t.Errorf("MeanError = %v, want 3", got)
	}
	all := Matching{Err: []float64{math.NaN()}}
	if got := all.MeanError(); !math.IsNaN(got) {
		t.Errorf("all-NaN MeanError = %v, want NaN", got)
	}
}

func TestSeries(t *testing.T) {
	rows := [][]float64{
		{1, 3},
		{math.NaN(), 4},
		{math.NaN(), math.NaN()},
	}
	got := Series(rows)
	if math.Abs(got[0]-2) > 1e-12 {
		t.Errorf("step 0 = %v", got[0])
	}
	if math.Abs(got[1]-4) > 1e-12 {
		t.Errorf("step 1 = %v", got[1])
	}
	if !math.IsNaN(got[2]) {
		t.Errorf("step 2 = %v, want NaN", got[2])
	}
}

func TestMeanOverWindow(t *testing.T) {
	xs := []float64{100, 2, 4, math.NaN(), 6}
	if got := MeanOverWindow(xs, 1, 5); math.Abs(got-4) > 1e-12 {
		t.Errorf("window mean = %v, want 4", got)
	}
	if got := MeanOverWindow(xs, -5, 99); math.Abs(got-28) > 1e-12 {
		t.Errorf("clamped window mean = %v, want 28", got)
	}
	if got := MeanOverWindow([]float64{math.NaN()}, 0, 1); !math.IsNaN(got) {
		t.Errorf("all-NaN window = %v", got)
	}
}
