package sensor

import (
	"errors"
	"math"
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/stat"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestExpectedCPM(t *testing.T) {
	s := Sensor{ID: 0, Pos: geometry.V(10, 0), Efficiency: 1e-4, Background: 5}
	src := radiation.Source{Pos: geometry.V(0, 0), Strength: 10}
	want := radiation.CPMPerMicroCurie*1e-4*10.0/101 + 5
	if got := s.ExpectedCPM([]radiation.Source{src}, nil); !almostEq(got, want, 1e-9) {
		t.Errorf("ExpectedCPM = %v, want %v", got, want)
	}
}

func TestMeasurePoissonStatistics(t *testing.T) {
	s := Sensor{ID: 3, Pos: geometry.V(5, 5), Efficiency: 1e-4, Background: 20}
	src := radiation.Source{Pos: geometry.V(5, 8), Strength: 50}
	lambda := s.ExpectedCPM([]radiation.Source{src}, nil)
	stream := rng.New(42, 42)
	const n = 50_000
	var sum float64
	for i := 0; i < n; i++ {
		m := s.Measure(stream, []radiation.Source{src}, nil, 7)
		if m.SensorID != 3 || m.Step != 7 || !m.Pos.Eq(s.Pos) {
			t.Fatalf("measurement metadata wrong: %+v", m)
		}
		if m.CPM < 0 {
			t.Fatal("negative CPM")
		}
		sum += float64(m.CPM)
	}
	mean := sum / n
	if math.Abs(mean-lambda)/lambda > 0.02 {
		t.Errorf("measurement mean = %v, want ≈%v", mean, lambda)
	}
}

func TestLogLikelihoodPeaksAtTruth(t *testing.T) {
	s := Sensor{Pos: geometry.V(0, 0), Efficiency: 1e-4, Background: 5}
	truth := radiation.Source{Pos: geometry.V(5, 0), Strength: 100}
	lambda := radiation.ExpectedCPM(s.Pos, s.Efficiency, s.Background, []radiation.Source{truth}, nil)
	cpm := int(math.Round(lambda))
	// The obstacle-agnostic likelihood the particle filter evaluates:
	// free-space expected CPM (Eq. 1 into Eq. 4) under a Poisson count.
	logLikelihood := func(hyp radiation.Source) float64 {
		return stat.PoissonLogPMF(cpm, radiation.ExpectedCPM(s.Pos, s.Efficiency, s.Background, []radiation.Source{hyp}, nil))
	}

	llTruth := logLikelihood(truth)
	// A hypothesis far from the truth must score lower.
	far := radiation.Source{Pos: geometry.V(80, 80), Strength: 100}
	if llFar := logLikelihood(far); llFar >= llTruth {
		t.Errorf("far hypothesis scored %v ≥ truth %v", llFar, llTruth)
	}
	// A wildly wrong strength must score lower too.
	weak := radiation.Source{Pos: geometry.V(5, 0), Strength: 0.01}
	if llWeak := logLikelihood(weak); llWeak >= llTruth {
		t.Errorf("weak hypothesis scored %v ≥ truth %v", llWeak, llTruth)
	}
}

func TestCalibrate(t *testing.T) {
	trueEff := 2.5e-4
	s := Sensor{Pos: geometry.V(3, 0), Efficiency: trueEff, Background: 10}
	check := radiation.Source{Pos: geometry.V(0, 0), Strength: 200}
	stream := rng.New(7, 9)
	readings := make([]int, 2000)
	for i := range readings {
		readings[i] = s.Measure(stream, []radiation.Source{check}, nil, 0).CPM
	}
	got, err := Calibrate(readings, s.Pos, s.Background, check)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-trueEff)/trueEff > 0.05 {
		t.Errorf("calibrated efficiency = %v, want ≈%v", got, trueEff)
	}
}

func TestCalibrateErrors(t *testing.T) {
	if _, err := Calibrate(nil, geometry.V(0, 0), 5, radiation.Source{Strength: 1}); !errors.Is(err, ErrNoReadings) {
		t.Errorf("empty readings err = %v", err)
	}
	if _, err := Calibrate([]int{5}, geometry.V(0, 0), 5, radiation.Source{Strength: 0}); err == nil {
		t.Error("zero-strength check source should error")
	}
	// All-background readings clamp to zero efficiency, not negative.
	eff, err := Calibrate([]int{0, 0, 0}, geometry.V(1, 0), 5, radiation.Source{Strength: 10})
	if err != nil || eff != 0 {
		t.Errorf("sub-background calibration = %v, %v; want 0, nil", eff, err)
	}
}

func TestGridLayout(t *testing.T) {
	b := geometry.NewRect(geometry.V(0, 0), geometry.V(100, 100))
	g := Grid(b, 6, 6, 1e-4, 5)
	if len(g) != 36 {
		t.Fatalf("grid count = %d, want 36", len(g))
	}
	if !g[0].Pos.Eq(geometry.V(0, 0)) {
		t.Errorf("first sensor at %v, want (0,0)", g[0].Pos)
	}
	if !g[35].Pos.Eq(geometry.V(100, 100)) {
		t.Errorf("last sensor at %v, want (100,100)", g[35].Pos)
	}
	if !g[1].Pos.Eq(geometry.V(20, 0)) {
		t.Errorf("second sensor at %v, want (20,0)", g[1].Pos)
	}
	for i, s := range g {
		if s.ID != i {
			t.Fatalf("sensor %d has ID %d", i, s.ID)
		}
	}
	if got := Grid(b, 0, 6, 1e-4, 5); got != nil {
		t.Errorf("degenerate grid = %v", got)
	}
	// Single row/column centers on the axis.
	one := Grid(b, 1, 1, 1e-4, 5)
	if len(one) != 1 || !one[0].Pos.Eq(geometry.V(50, 50)) {
		t.Errorf("1x1 grid = %+v", one)
	}
}

func TestPoissonField(t *testing.T) {
	b := geometry.NewRect(geometry.V(0, 0), geometry.V(260, 260))
	stream := rng.New(5, 5)
	f := PoissonField(b, 195, stream, 1e-4, 5)
	if len(f) != 195 {
		t.Fatalf("field count = %d", len(f))
	}
	for _, s := range f {
		if !b.Contains(s.Pos) {
			t.Fatalf("sensor outside bounds: %v", s.Pos)
		}
	}
	if got := PoissonField(b, 0, stream, 1e-4, 5); got != nil {
		t.Errorf("zero-count field = %v", got)
	}
	// Same seed reproduces the same layout.
	f2 := PoissonField(b, 195, rng.New(5, 5), 1e-4, 5)
	for i := range f {
		if !f[i].Pos.Eq(f2[i].Pos) {
			t.Fatal("Poisson field not reproducible from seed")
		}
	}
}
