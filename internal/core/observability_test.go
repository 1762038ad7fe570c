package core

import (
	"math"
	"testing"
	"testing/quick"

	"radloc/internal/geometry"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

func TestObservableDisabledByDefault(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !l.observable(geometry.V(1e6, 1e6)) {
		t.Error("filter disabled but point not observable")
	}
}

func TestObservableBeforeAnySensor(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSensorGap = 10
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No measurements yet: everything observable (no data to argue
	// otherwise).
	if !l.observable(geometry.V(50, 50)) {
		t.Error("point not observable before any sensor reported")
	}
}

func TestObservableTracksSeenSensors(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSensorGap = 10
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	l.Ingest(sensor.Sensor{ID: 0, Pos: geometry.V(20, 20), Efficiency: 1e-4, Background: 5}, 5)
	if !l.observable(geometry.V(25, 20)) {
		t.Error("point within gap of a seen sensor not observable")
	}
	if l.observable(geometry.V(80, 80)) {
		t.Error("point far from every seen sensor observable")
	}
	l.Ingest(sensor.Sensor{ID: 1, Pos: geometry.V(80, 82), Efficiency: 1e-4, Background: 5}, 5)
	if !l.observable(geometry.V(80, 80)) {
		t.Error("point near newly seen sensor still unobservable")
	}
}

// TestMaxSensorGapSuppressesDesertEstimates: sensors cover only the
// left half; a fake strong cluster of particles in the uncovered right
// half must not be reported with the filter on.
func TestMaxSensorGapSuppressesDesertEstimates(t *testing.T) {
	run := func(gap float64) int {
		cfg := testConfig()
		cfg.MaxSensorGap = gap
		l, err := NewLocalizer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Sensors on the left edge only.
		sensors := []sensor.Sensor{
			{ID: 0, Pos: geometry.V(10, 30), Efficiency: 1e-4, Background: 5},
			{ID: 1, Pos: geometry.V(10, 70), Efficiency: 1e-4, Background: 5},
		}
		for step := 0; step < 3; step++ {
			for _, sen := range sensors {
				l.Ingest(sen, 5)
			}
		}
		// Forge a dense cluster far from the sensors.
		st, err := l.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			st.Xs[i] = 90 + l.stream.Uniform(-1, 1)
			st.Ys[i] = 50 + l.stream.Uniform(-1, 1)
			st.Ss[i] = 50
			st.Ws[i] = 1.0 / 400
		}
		if err := l.ImportState(st); err != nil {
			t.Fatal(err)
		}
		desert := 0
		for _, e := range l.Estimates() {
			if e.Pos.X > 60 {
				desert++
			}
		}
		return desert
	}
	if got := run(15); got != 0 {
		t.Errorf("observability filter on: %d desert estimates", got)
	}
	if got := run(0); got == 0 {
		t.Error("filter off: expected the forged desert cluster to be reported")
	}
}

// Property: total particle mass stays 1 under arbitrary measurement
// sequences (mass-preserving resampling), and particles stay in bounds.
func TestIngestInvariantsProperty(t *testing.T) {
	cfg := testConfig()
	cfg.NumParticles = 300
	f := func(seed uint64, readings []uint16) bool {
		l, err := NewLocalizer(cfg)
		if err != nil {
			return false
		}
		stream := rng.New(seed, 1)
		for _, r := range readings {
			sen := sensor.Sensor{
				ID:         int(r % 7),
				Pos:        geometry.V(stream.Uniform(-10, 110), stream.Uniform(-10, 110)),
				Efficiency: 1e-4,
				Background: 5,
			}
			l.Ingest(sen, int(r%2000))
		}
		var sum float64
		for _, p := range l.Particles() {
			if p.Weight < 0 || math.IsNaN(p.Weight) || math.IsInf(p.Weight, 0) {
				return false
			}
			if !cfg.Bounds.Contains(p.Pos) {
				return false
			}
			if p.Strength < 0.1-1e-9 || p.Strength > 200+1e-9 {
				return false
			}
			sum += p.Weight
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: Estimates never reports more modes than MeanShiftStarts and
// never reports NaN positions.
func TestEstimatesSanityProperty(t *testing.T) {
	cfg := testConfig()
	cfg.NumParticles = 400
	cfg.MeanShiftStarts = 32
	f := func(seed uint64) bool {
		l, err := NewLocalizer(cfg)
		if err != nil {
			return false
		}
		stream := rng.New(seed, 2)
		for i := 0; i < 30; i++ {
			sen := sensor.Sensor{
				ID:         i % 5,
				Pos:        geometry.V(stream.Uniform(0, 100), stream.Uniform(0, 100)),
				Efficiency: 1e-4,
				Background: 5,
			}
			l.Ingest(sen, stream.IntN(500))
		}
		ests := l.Estimates()
		if len(ests) > 32 {
			return false
		}
		for _, e := range ests {
			if math.IsNaN(e.Pos.X) || math.IsNaN(e.Pos.Y) || math.IsNaN(e.Strength) {
				return false
			}
			if e.Mass < 0 || e.Mass > 1+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
