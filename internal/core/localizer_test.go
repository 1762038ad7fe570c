package core

import (
	"math"
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

func bounds100() geometry.Rect {
	return geometry.NewRect(geometry.V(0, 0), geometry.V(100, 100))
}

func testConfig() Config {
	return Config{Bounds: bounds100(), Seed: 1, Workers: 2}
}

// runSteps feeds the localizer `steps` full rounds of in-order
// measurements from a 6×6 grid observing the given sources.
func runSteps(t *testing.T, l *Localizer, sources []radiation.Source, obstacles []radiation.Obstacle, steps int, seed uint64) []sensor.Sensor {
	t.Helper()
	sensors := sensor.Grid(bounds100(), 6, 6, sensor.DefaultEfficiency, 5)
	stream := rng.NewNamed(seed, "test/measurements")
	for step := 0; step < steps; step++ {
		for _, sen := range sensors {
			m := sen.Measure(stream, sources, obstacles, step)
			l.Ingest(sen, m.CPM)
		}
	}
	return sensors
}

func nearestEstimate(ests []Estimate, p geometry.Vec) (Estimate, float64) {
	best := math.Inf(1)
	var bestE Estimate
	for _, e := range ests {
		if d := e.Pos.Dist(p); d < best {
			best = d
			bestE = e
		}
	}
	return bestE, best
}

func TestNewLocalizerValidation(t *testing.T) {
	if _, err := NewLocalizer(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	bad := testConfig()
	bad.InjectionFrac = 1.5
	if _, err := NewLocalizer(bad); err == nil {
		t.Error("InjectionFrac > 1 accepted")
	}
	bad = testConfig()
	bad.StrengthMin = 50
	bad.StrengthMax = 10
	if _, err := NewLocalizer(bad); err == nil {
		t.Error("inverted strength prior accepted")
	}
	bad = testConfig()
	bad.ModeMassMin = 1.0
	if _, err := NewLocalizer(bad); err == nil {
		t.Error("ModeMassMin = 1 accepted")
	}
}

func TestInitialParticlesUniform(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := l.Particles()
	if len(ps) != 2000 {
		t.Fatalf("particles = %d, want default 2000", len(ps))
	}
	var quad [4]int
	for _, p := range ps {
		if !bounds100().Contains(p.Pos) {
			t.Fatalf("particle outside bounds: %v", p.Pos)
		}
		if p.Strength < 0.1 || p.Strength > 200 {
			t.Fatalf("strength outside prior: %v", p.Strength)
		}
		if math.Abs(p.Weight-1.0/2000) > 1e-12 {
			t.Fatalf("initial weight = %v", p.Weight)
		}
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
			t.Errorf("quadrant %d holds %d/2000 particles — not uniform", q, n)
		}
	}
}

func TestSingleSourceConverges(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	truth := []radiation.Source{{Pos: geometry.V(62, 38), Strength: 50}}
	runSteps(t, l, truth, nil, 10, 7)

	ests := l.Estimates()
	if len(ests) == 0 {
		t.Fatal("no estimates after 10 steps")
	}
	e, d := nearestEstimate(ests, truth[0].Pos)
	if d > 6 {
		t.Errorf("localization error %v > 6 (estimate %v)", d, e)
	}
	if e.Strength < 15 || e.Strength > 150 {
		t.Errorf("strength estimate %v wildly off 50", e.Strength)
	}
	// The dominant mode must be the true source; a couple of weak
	// spurious modes (the paper's early false positives) are expected.
	if !ests[0].Pos.Eq(e.Pos) {
		t.Errorf("dominant mode %v is not the source (source mode %v)", ests[0], e)
	}
	if len(ests) > 5 {
		t.Errorf("%d estimates for a single source: %v", len(ests), ests)
	}
}

func TestTwoSourcesResolved(t *testing.T) {
	cfg := testConfig()
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := []radiation.Source{
		{Pos: geometry.V(47, 71), Strength: 50},
		{Pos: geometry.V(81, 42), Strength: 50},
	}
	runSteps(t, l, truth, nil, 12, 3)

	ests := l.Estimates()
	if len(ests) < 2 {
		t.Fatalf("estimates = %v, want ≥ 2 modes", ests)
	}
	for _, src := range truth {
		if _, d := nearestEstimate(ests, src.Pos); d > 8 {
			t.Errorf("source at %v localized with error %v", src.Pos, d)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	truth := []radiation.Source{{Pos: geometry.V(30, 30), Strength: 20}}
	run := func() []Estimate {
		l, err := NewLocalizer(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		runSteps(t, l, truth, nil, 5, 11)
		return l.Estimates()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
	for i := range a {
		if !a[i].Pos.Eq(b[i].Pos) || a[i].Strength != b[i].Strength {
			t.Fatalf("estimate %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFusionRangeLimitsUpdates(t *testing.T) {
	cfg := testConfig()
	cfg.InjectionFrac = -1 // sentinel below: use explicit zero
	cfg.InjectionFrac = 0.000001
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := l.Particles()
	sen := sensor.Sensor{ID: 0, Pos: geometry.V(10, 10), Efficiency: 1e-4, Background: 5}
	l.Ingest(sen, 5)
	after := l.Particles()

	moved := 0
	for i := range before {
		far := before[i].Pos.Dist(sen.Pos) > cfg.withDefaults().FusionRange
		changed := !before[i].Pos.Eq(after[i].Pos) || before[i].Strength != after[i].Strength
		if far && changed {
			t.Fatalf("particle %d outside fusion range changed: %v → %v", i, before[i], after[i])
		}
		if changed {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no particle inside the fusion range changed")
	}
}

func TestDisableFusionRangeUpdatesEverything(t *testing.T) {
	cfg := testConfig()
	cfg.DisableFusionRange = true
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sen := sensor.Sensor{ID: 0, Pos: geometry.V(10, 10), Efficiency: 1e-4, Background: 5}
	// A strong reading at one corner must be able to drag far particles
	// (the Fig. 2 failure mode the fusion range prevents).
	before := l.Particles()
	for i := 0; i < 40; i++ {
		l.Ingest(sen, 400)
	}
	after := l.Particles()
	changedFar := 0
	for i := range before {
		if before[i].Pos.Dist(sen.Pos) > 28 && !before[i].Pos.Eq(after[i].Pos) {
			changedFar++
		}
	}
	if changedFar == 0 {
		t.Error("no far particle changed with the fusion range disabled")
	}
}

func TestEmptyFusionDiscIsNoOp(t *testing.T) {
	cfg := testConfig()
	cfg.FusionRange = 1 // tiny: a sensor at a corner with no particles within 1 unit is likely
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find a spot with no particles within range 1.
	probe := geometry.V(-0.5, -0.5) // outside bounds but valid sensor location
	before := l.Particles()
	l.Ingest(sensor.Sensor{ID: 0, Pos: probe, Efficiency: 1e-4, Background: 5}, 5)
	after := l.Particles()
	for i := range before {
		if before[i] != after[i] {
			// Only acceptable if the particle really was within range.
			if before[i].Pos.Dist(probe) > 1 {
				t.Fatalf("no-op iteration mutated particle %d", i)
			}
		}
	}
}

func TestWeightsConserved(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	truth := []radiation.Source{{Pos: geometry.V(50, 50), Strength: 100}}
	runSteps(t, l, truth, nil, 3, 9)
	var sum float64
	for _, p := range l.Particles() {
		if p.Weight < 0 || math.IsNaN(p.Weight) {
			t.Fatalf("invalid weight %v", p.Weight)
		}
		sum += p.Weight
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("total mass = %v, want 1 (mass-preserving resampling)", sum)
	}
}

func TestParticlesStayInBounds(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	truth := []radiation.Source{{Pos: geometry.V(2, 97), Strength: 100}} // near a corner
	runSteps(t, l, truth, nil, 8, 5)
	for i, p := range l.Particles() {
		if !bounds100().Contains(p.Pos) {
			t.Fatalf("particle %d escaped bounds: %v", i, p.Pos)
		}
		if p.Strength < 0.1-1e-9 || p.Strength > 200+1e-9 {
			t.Fatalf("particle %d strength outside prior: %v", i, p.Strength)
		}
	}
}

func TestNoSourcesYieldsNoConfidentEstimates(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	runSteps(t, l, nil, nil, 12, 13)
	ests := l.Estimates()
	// Background-only readings: surviving hypotheses are weak; the
	// MinSourceStrength filter must suppress them (at most a stray one).
	if len(ests) > 1 {
		t.Errorf("background-only run produced %d estimates: %v", len(ests), ests)
	}
}

func TestCentroidFallsBetweenTwoSources(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	truth := []radiation.Source{
		{Pos: geometry.V(47, 71), Strength: 50},
		{Pos: geometry.V(81, 42), Strength: 50},
	}
	runSteps(t, l, truth, nil, 10, 17)
	c := l.Centroid()
	d0 := c.Pos.Dist(truth[0].Pos)
	d1 := c.Pos.Dist(truth[1].Pos)
	// The motivating failure: the weighted centroid cannot resolve two
	// sources — it sits well away from both.
	if d0 < 8 || d1 < 8 {
		t.Errorf("centroid %v unexpectedly close to a source (%v, %v)", c.Pos, d0, d1)
	}
}

func TestIterationsCount(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sen := sensor.Sensor{ID: 0, Pos: geometry.V(50, 50), Efficiency: 1e-4, Background: 5}
	for i := 0; i < 7; i++ {
		l.Ingest(sen, 5)
	}
	if got := exportState(t, l).Iter; got != 7 {
		t.Errorf("Iterations = %d, want 7", got)
	}
}

func TestAppendParticlesReuse(t *testing.T) {
	l, err := NewLocalizer(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	sen := sensor.Sensor{ID: 0, Pos: geometry.V(50, 50), Efficiency: 1e-4, Background: 5}
	for i := 0; i < 5; i++ {
		l.Ingest(sen, 40)
	}

	want := l.Particles()
	buf := l.AppendParticles(nil)
	if len(buf) != len(want) {
		t.Fatalf("AppendParticles len = %d, want %d", len(buf), len(want))
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("particle %d differs: %+v vs %+v", i, buf[i], want[i])
		}
	}

	// Re-slicing to zero length reuses the grown buffer: no new backing
	// array, identical contents.
	before := &buf[0]
	buf = l.AppendParticles(buf[:0])
	if &buf[0] != before {
		t.Error("AppendParticles reallocated a buffer that was already large enough")
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("reused buffer particle %d differs", i)
		}
	}

	// Appending preserves an existing prefix.
	prefix := []Particle{{Strength: -1}}
	out := l.AppendParticles(prefix)
	if len(out) != 1+len(want) || out[0].Strength != -1 {
		t.Fatalf("prefix not preserved: len=%d first=%+v", len(out), out[0])
	}
}
