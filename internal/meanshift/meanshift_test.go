package meanshift

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"radloc/internal/rng"
)

// cluster3 appends n points of a Gaussian cluster at (cx, cy, cs) to
// the flat arrays.
func cluster3(s *rng.Stream, pts, ws []float64, n int, cx, cy, cs, spread, w float64) ([]float64, []float64) {
	for i := 0; i < n; i++ {
		pts = append(pts,
			s.Normal(cx, spread),
			s.Normal(cy, spread),
			s.Normal(cs, spread*3),
		)
		ws = append(ws, w)
	}
	return pts, ws
}

func defaultCfg() Config {
	return Config{Bandwidth: []float64{4, 4, 30}}
}

// newSearcher returns a Searcher for cfg, failing the test if cfg is
// invalid.
func newSearcher(t testing.TB, cfg Config) *Searcher {
	t.Helper()
	s, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// view lays out interleaved points, d coordinates each (point j at
// pts[j*d:(j+1)*d]), as the columnar Points a Searcher reads, each
// point its own weight class.
func view(d int, pts, ws []float64) Points {
	coords := make([][]float64, d)
	for k := range coords {
		coords[k] = make([]float64, len(ws))
		for j := range ws {
			coords[k][j] = pts[j*d+k]
		}
	}
	return Points{Coords: coords, Class: identity(len(ws)), Weights: ws}
}

// identity returns the class indexes 0, 1, …, n−1: every point its own
// class.
func identity(n int) []uint32 {
	cls := make([]uint32, n)
	for j := range cls {
		cls[j] = uint32(j)
	}
	return cls
}

func TestFindModesTwoClusters(t *testing.T) {
	s := rng.New(1, 1)
	var pts, ws []float64
	pts, ws = cluster3(s, pts, ws, 400, 20, 20, 50, 2, 1)
	pts, ws = cluster3(s, pts, ws, 400, 80, 70, 120, 2, 1)

	// Starts on a coarse grid.
	var starts []float64
	for x := 10.0; x <= 90; x += 20 {
		for y := 10.0; y <= 90; y += 20 {
			starts = append(starts, x, y, 80)
		}
	}
	modes, err := newSearcher(t, defaultCfg()).FindModes(view(3, pts, ws), starts)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 2 {
		t.Fatalf("found %d modes, want 2: %+v", len(modes), modes)
	}
	// Modes are density-sorted but the clusters are symmetric; match by
	// distance.
	for _, want := range [][2]float64{{20, 20}, {80, 70}} {
		found := false
		for _, m := range modes {
			if math.Hypot(m.Point[0]-want[0], m.Point[1]-want[1]) < 3 {
				found = true
			}
		}
		if !found {
			t.Errorf("no mode near (%v,%v): %+v", want[0], want[1], modes)
		}
	}
	// Strength coordinate recovered too.
	for _, m := range modes {
		if m.Point[0] < 50 && math.Abs(m.Point[2]-50) > 15 {
			t.Errorf("cluster-1 strength mode = %v, want ≈50", m.Point[2])
		}
		if m.Point[0] > 50 && math.Abs(m.Point[2]-120) > 15 {
			t.Errorf("cluster-2 strength mode = %v, want ≈120", m.Point[2])
		}
	}
}

func TestFindModesRespectsWeights(t *testing.T) {
	s := rng.New(2, 2)
	var pts, ws []float64
	// Heavy cluster and a zero-weight cluster: the latter must not
	// produce a mode.
	pts, ws = cluster3(s, pts, ws, 300, 25, 25, 40, 2, 1)
	pts, ws = cluster3(s, pts, ws, 300, 75, 75, 40, 2, 0)

	starts := []float64{25, 25, 40, 75, 75, 40}
	modes, err := newSearcher(t, defaultCfg()).FindModes(view(3, pts, ws), starts)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 1 {
		t.Fatalf("modes = %+v, want exactly 1", modes)
	}
	if math.Hypot(modes[0].Point[0]-25, modes[0].Point[1]-25) > 3 {
		t.Errorf("mode at (%v,%v), want near (25,25)", modes[0].Point[0], modes[0].Point[1])
	}
}

// TestFindModesMergesDuplicateStarts: starts that repeat (here every
// start appears twice, so each pair lands in different phases) climb
// identically and merge with all the others into the one mode.
func TestFindModesMergesDuplicateStarts(t *testing.T) {
	s := rng.New(3, 3)
	var pts, ws []float64
	pts, ws = cluster3(s, pts, ws, 500, 50, 50, 100, 2, 1)
	var starts []float64
	// All starts within the kernel cutoff of the cluster so none is
	// discarded for lack of support.
	for i := 0; i < 16; i++ {
		x, y, str := s.Uniform(42, 58), s.Uniform(42, 58), s.Uniform(70, 130)
		starts = append(starts, x, y, str, x, y, str)
	}
	modes, err := newSearcher(t, defaultCfg()).FindModes(view(3, pts, ws), starts)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 1 {
		t.Fatalf("modes = %d, want 1", len(modes))
	}
	if modes[0].Starts != 32 {
		t.Errorf("merged starts = %d, want 32", modes[0].Starts)
	}
}

func TestFindModesEmptyInputs(t *testing.T) {
	s := newSearcher(t, defaultCfg())
	if modes, err := s.FindModes(view(3, nil, nil), []float64{1, 1, 1}); err != nil || modes != nil {
		t.Errorf("no points: %v, %v", modes, err)
	}
	if modes, err := s.FindModes(view(3, []float64{1, 1, 1}, []float64{1}), nil); err != nil || modes != nil {
		t.Errorf("no starts: %v, %v", modes, err)
	}
	if modes, err := s.FindModes(view(3, []float64{1, 1, 1, 2, 2, 2}, []float64{0, -1}), []float64{1, 1, 1}); err != nil || modes != nil {
		t.Errorf("no positive weight: %v, %v", modes, err)
	}
}

func TestFindModesErrors(t *testing.T) {
	if _, err := NewSearcher(Config{Bandwidth: []float64{4}}); err == nil {
		t.Error("1-D bandwidth accepted")
	}
	if _, err := NewSearcher(Config{Bandwidth: []float64{4, -1}}); err == nil {
		t.Error("negative bandwidth accepted")
	}
	s := newSearcher(t, defaultCfg())
	if _, err := s.FindModes(Points{Coords: [][]float64{{1}, {2}}, Class: []uint32{0}, Weights: []float64{1}}, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("two coordinate arrays in three dimensions: %v", err)
	}
	if _, err := s.FindModes(Points{Coords: [][]float64{{1}, {2, 2}, {3}}, Class: []uint32{0}, Weights: []float64{1}}, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged coordinates: %v", err)
	}
	if _, err := s.FindModes(Points{Coords: [][]float64{{1}, {2}, {3}}, Class: []uint32{0, 0}, Weights: []float64{1}}, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("weight count mismatch: %v", err)
	}
	if _, err := s.FindModes(view(3, []float64{1, 2, 3}, []float64{1}), []float64{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged starts: %v", err)
	}
}

// TestFindModesNonFinitePointTerminates: a point at ±Inf or NaN once
// sent the prune grid's cell sizing into an endless loop. Now its
// bounding box gets a single cell: an infinite point still cannot pull
// a climb, so the cluster's mode is found; a NaN point poisons the
// climbs that see it, but the search still returns.
func TestFindModesNonFinitePointTerminates(t *testing.T) {
	s := rng.New(7, 7)
	var pts, ws []float64
	pts, ws = cluster3(s, pts, ws, 200, 30, 30, 60, 2, 1)
	starts := []float64{30, 30, 60, 32, 29, 70}
	for _, bad := range [][3]float64{
		{math.Inf(1), 30, 60},
		{30, math.Inf(-1), 60},
		{math.Inf(1), math.Inf(1), 60},
		{math.NaN(), 30, 60},
	} {
		p := append(append([]float64(nil), pts...), bad[:]...)
		w := append(append([]float64(nil), ws...), 1)
		searcher := newSearcher(t, defaultCfg())
		var modes []Mode
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			modes, err = searcher.FindModes(view(3, p, w), starts)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("FindModes with a point at %v did not return", bad)
		}
		if err != nil {
			t.Fatalf("point at %v: %v", bad, err)
		}
		if !math.IsNaN(bad[0]) && (len(modes) != 1 || math.Hypot(modes[0].Point[0]-30, modes[0].Point[1]-30) > 3) {
			t.Errorf("point at %v: modes %+v, want one near (30,30)", bad, modes)
		}
	}
}

func TestStartInDesertIsDiscarded(t *testing.T) {
	s := rng.New(4, 4)
	var pts, ws []float64
	pts, ws = cluster3(s, pts, ws, 200, 10, 10, 50, 1.5, 1)
	// One start near the cluster, one far outside any kernel support.
	starts := []float64{12, 12, 60, 900, 900, 50}
	modes, err := newSearcher(t, defaultCfg()).FindModes(view(3, pts, ws), starts)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 1 {
		t.Fatalf("modes = %+v, want 1 (desert start discarded)", modes)
	}
}

func TestAssignMass(t *testing.T) {
	s := rng.New(5, 5)
	var pts, ws []float64
	pts, ws = cluster3(s, pts, ws, 300, 20, 20, 50, 2, 2)  // mass 600
	pts, ws = cluster3(s, pts, ws, 100, 80, 80, 100, 2, 1) // mass 100
	pts = append(pts, 500, 500, 50)                        // outlier
	ws = append(ws, 5)

	searcher := newSearcher(t, defaultCfg())
	starts := []float64{20, 20, 50, 80, 80, 100}
	modes, err := searcher.FindModes(view(3, pts, ws), starts)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 2 {
		t.Fatalf("modes = %d, want 2", len(modes))
	}
	mass, err := searcher.AssignMass(modes, view(3, pts, ws), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(mass) != 3 {
		t.Fatalf("mass slots = %d, want 3", len(mass))
	}
	var big, small float64
	if modes[0].Point[0] < 50 {
		big, small = mass[0], mass[1]
	} else {
		big, small = mass[1], mass[0]
	}
	if big < 550 || big > 610 {
		t.Errorf("big-cluster mass = %v, want ≈600", big)
	}
	if small < 80 || small > 110 {
		t.Errorf("small-cluster mass = %v, want ≈100", small)
	}
	if mass[2] < 5 {
		t.Errorf("unassigned mass = %v, want ≥ 5 (the outlier)", mass[2])
	}
}

func TestAssignMassErrors(t *testing.T) {
	s := newSearcher(t, defaultCfg())
	if _, err := s.AssignMass(nil, Points{Coords: [][]float64{{1}, {2}}, Class: []uint32{0}, Weights: []float64{1}}, 3); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("two coordinate arrays in three dimensions: %v", err)
	}
	if _, err := s.AssignMass(nil, Points{Coords: [][]float64{{1}, {2}, {3, 3}}, Class: []uint32{0}, Weights: []float64{1}}, 3); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("ragged coordinates: %v", err)
	}
	if _, err := NewSearcher(Config{Bandwidth: []float64{0, 1}}); err == nil {
		t.Error("invalid bandwidth accepted")
	}
	// No modes: everything with positive weight unassigned.
	mass, err := s.AssignMass(nil, view(3, []float64{1, 2, 3, 4, 5, 6}, []float64{7, 0}), 3)
	if err != nil || len(mass) != 1 || mass[0] != 7 {
		t.Errorf("no-mode assignment = %v, %v", mass, err)
	}
}

// TestWorkerCountsAgree: the worker count changes scheduling only —
// every mode's point, density and Starts are bit-identical.
func TestWorkerCountsAgree(t *testing.T) {
	s := rng.New(6, 6)
	var pts, ws []float64
	pts, ws = cluster3(s, pts, ws, 300, 30, 40, 60, 2, 1)
	pts, ws = cluster3(s, pts, ws, 300, 70, 60, 140, 2, 1)
	var starts []float64
	for i := 0; i < 48; i++ {
		starts = append(starts, s.Uniform(0, 100), s.Uniform(0, 100), s.Uniform(0, 200))
	}
	var ref []Mode
	for _, workers := range []int{1, 2, 3, 8} {
		cfg := defaultCfg()
		cfg.Workers = workers
		modes, err := newSearcher(t, cfg).FindModes(view(3, pts, ws), starts)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = modes
			continue
		}
		if len(modes) != len(ref) {
			t.Fatalf("workers=%d: %d modes, workers=1 found %d", workers, len(modes), len(ref))
		}
		for i, m := range modes {
			if math.Float64bits(m.Density) != math.Float64bits(ref[i].Density) || m.Starts != ref[i].Starts {
				t.Fatalf("workers=%d mode %d: (density %v, starts %d) vs workers=1 (%v, %d)",
					workers, i, m.Density, m.Starts, ref[i].Density, ref[i].Starts)
			}
			for k := range m.Point {
				if math.Float64bits(m.Point[k]) != math.Float64bits(ref[i].Point[k]) {
					t.Fatalf("workers=%d mode %d dim %d: %v vs workers=1 %v", workers, i, k, m.Point[k], ref[i].Point[k])
				}
			}
		}
	}
}

// TestExpNegHalfErrorBound sweeps the interpolated kernel against
// math.Exp over the table's whole domain. The linear-interpolation
// error bound for step h is h²/8 times the second derivative's largest
// magnitude, h²/32 ≈ 4.8e-7 relative — three orders of magnitude
// below the kernel's own 4σ truncation (e^-8 ≈ 3.4e-4), so the table
// can never reorder modes the exact kernel would separate.
func TestExpNegHalfErrorBound(t *testing.T) {
	s := rng.New(11, 3)
	worst := 0.0
	for i := 0; i < 200000; i++ {
		d2 := s.Uniform(0, expTableMax)
		got := expNegHalf(d2, false)
		want := math.Exp(-0.5 * d2)
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
	}
	if worst > 1e-6 {
		t.Errorf("interpolated kernel relative error %v, want < 1e-6", worst)
	}
	// Beyond the table and under ExactKernel the fallback is exact.
	for _, d2 := range []float64{expTableMax, expTableMax + 1, 100} {
		if got, want := expNegHalf(d2, false), math.Exp(-0.5*d2); got != want {
			t.Errorf("expNegHalf(%v) = %v beyond table, want exact %v", d2, got, want)
		}
	}
	if got, want := expNegHalf(3.7, true), math.Exp(-0.5*3.7); got != want {
		t.Errorf("exact-mode expNegHalf(3.7) = %v, want %v", got, want)
	}
}

// TestSearcherReuseMatchesFresh drives one Searcher through several
// different datasets and checks each call returns exactly what a
// single-use Searcher computes: nothing a search leaves behind may
// change the next.
func TestSearcherReuseMatchesFresh(t *testing.T) {
	s := rng.New(12, 9)
	reused, err := NewSearcher(defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		var pts, ws []float64
		pts, ws = cluster3(s, pts, ws, 100+40*round, 20+10*float64(round), 50, 80, 2, 1)
		pts, ws = cluster3(s, pts, ws, 150, 80, 30, 160, 3, 0.5)
		var starts []float64
		for i := 0; i < 16; i++ {
			starts = append(starts, s.Uniform(0, 100), s.Uniform(0, 100), s.Uniform(0, 250))
		}
		got, err := reused.FindModes(view(3, pts, ws), starts)
		if err != nil {
			t.Fatal(err)
		}
		want, err := newSearcher(t, defaultCfg()).FindModes(view(3, pts, ws), starts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: reused searcher found %d modes, fresh %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i].Density != want[i].Density || got[i].Starts != want[i].Starts {
				t.Fatalf("round %d mode %d: (density %v, starts %d) vs fresh (%v, %d)",
					round, i, got[i].Density, got[i].Starts, want[i].Density, want[i].Starts)
			}
			for k := range got[i].Point {
				if got[i].Point[k] != want[i].Point[k] {
					t.Fatalf("round %d mode %d dim %d: %v vs %v",
						round, i, k, got[i].Point[k], want[i].Point[k])
				}
			}
		}
	}
}

// TestExactKernelAgreesWithTable checks the ExactKernel escape hatch
// lands on the same modes (within the interpolation error's reach) as
// the default table-driven kernel.
func TestExactKernelAgreesWithTable(t *testing.T) {
	s := rng.New(13, 5)
	var pts, ws []float64
	pts, ws = cluster3(s, pts, ws, 250, 35, 45, 70, 2, 1)
	pts, ws = cluster3(s, pts, ws, 250, 65, 55, 150, 2, 1)
	var starts []float64
	for i := 0; i < 20; i++ {
		starts = append(starts, s.Uniform(0, 100), s.Uniform(0, 100), s.Uniform(0, 220))
	}
	table, err := newSearcher(t, defaultCfg()).FindModes(view(3, pts, ws), starts)
	if err != nil {
		t.Fatal(err)
	}
	exactCfg := defaultCfg()
	exactCfg.ExactKernel = true
	exact, err := newSearcher(t, exactCfg).FindModes(view(3, pts, ws), starts)
	if err != nil {
		t.Fatal(err)
	}
	if len(table) != len(exact) {
		t.Fatalf("table kernel found %d modes, exact %d", len(table), len(exact))
	}
	for i := range table {
		for k := range table[i].Point {
			if math.Abs(table[i].Point[k]-exact[i].Point[k]) > 1e-3 {
				t.Fatalf("mode %d dim %d: table %v vs exact %v",
					i, k, table[i].Point[k], exact[i].Point[k])
			}
		}
	}
}

// perSearchAllocs names the allocations every FindModes call makes
// besides the returned modes: its working storage, which it drops on
// return.
var perSearchAllocs = []string{
	"search state (the search struct)",
	"point slab (px, py, pw, rest)",
	"cellStart",
	"staging slab (res, dens, anchors, anchorDens, nums)",
	"resOK",
	"ord",
}

// TestWarmSearchAllocatesOnlyModes: once a Searcher has run one search,
// another over the same population allocates the returned modes — one
// array per mode point plus the modes slice's growth — and the fixed
// per-search buffers, whatever the particle and start counts.
func TestWarmSearchAllocatesOnlyModes(t *testing.T) {
	for _, n := range []int{1000, 8000} {
		for _, m := range []int{48, 384} {
			s := rng.New(14, uint64(n+m))
			var pts, ws []float64
			pts, ws = cluster3(s, pts, ws, n/2, 30, 40, 60, 2, 1)
			pts, ws = cluster3(s, pts, ws, n/2, 70, 60, 140, 2, 1)
			starts := sampleStarts(s, pts, ws, m)
			points := view(3, pts, ws)
			searcher := newSearcher(t, Config{Bandwidth: []float64{4, 4, 30}, Workers: 1})
			modes, err := searcher.FindModes(points, starts)
			if err != nil {
				t.Fatal(err)
			}
			want := len(perSearchAllocs) + len(modes)
			var probe []Mode
			for range modes {
				if len(probe) == cap(probe) {
					want++
				}
				probe = append(probe, Mode{})
			}
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := searcher.FindModes(points, starts); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != float64(want) {
				t.Errorf("%d particles, %d starts: %v allocations per search, want %d for %d modes and %v",
					n, m, allocs, want, len(modes), perSearchAllocs)
			}
		}
	}
}

// TestSearcherConcurrentUse: goroutines sharing one Searcher, each over
// its own population, get exactly the modes and masses a serial run of
// the same Searcher gets. Run it under -race: a Searcher holds nothing
// that a search writes.
func TestSearcherConcurrentUse(t *testing.T) {
	const callers = 4
	searcher := newSearcher(t, Config{Bandwidth: []float64{4, 4, 30}, Workers: 2})
	type job struct {
		points Points
		starts []float64
		modes  []Mode
		mass   []float64
	}
	jobs := make([]job, callers)
	for c := range jobs {
		s := rng.New(15, uint64(c))
		var pts, ws []float64
		pts, ws = cluster3(s, pts, ws, 300+200*c, 20+15*float64(c), 40, 60, 2, 1)
		pts, ws = cluster3(s, pts, ws, 400, 80, 70-10*float64(c), 140, 3, 0.5)
		jobs[c].points = view(3, pts, ws)
		jobs[c].starts = sampleStarts(s, pts, ws, 64+32*c)
	}
	run := func(j *job) ([]Mode, []float64, error) {
		modes, err := searcher.FindModes(j.points, j.starts)
		if err != nil {
			return nil, nil, err
		}
		mass, err := searcher.AssignMass(modes, j.points, 3)
		return modes, mass, err
	}
	for c := range jobs {
		var err error
		if jobs[c].modes, jobs[c].mass, err = run(&jobs[c]); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for c := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				modes, mass, err := run(&jobs[c])
				if err != nil {
					t.Error(err)
					return
				}
				if msg := sameModes(modes, mass, jobs[c].modes, jobs[c].mass); msg != "" {
					t.Errorf("caller %d, repetition %d: %s", c, rep, msg)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// sameModes describes the first difference, by math.Float64bits,
// between two searches' modes and masses, or returns "" if there is
// none.
func sameModes(modes []Mode, mass []float64, want []Mode, wantMass []float64) string {
	if len(modes) != len(want) || len(mass) != len(wantMass) {
		return fmt.Sprintf("%d modes and %d masses, serially %d and %d", len(modes), len(mass), len(want), len(wantMass))
	}
	for i, m := range modes {
		if math.Float64bits(m.Density) != math.Float64bits(want[i].Density) || m.Starts != want[i].Starts {
			return fmt.Sprintf("mode %d: (density %v, starts %d), serially (%v, %d)", i, m.Density, m.Starts, want[i].Density, want[i].Starts)
		}
		for k := range m.Point {
			if math.Float64bits(m.Point[k]) != math.Float64bits(want[i].Point[k]) {
				return fmt.Sprintf("mode %d dim %d: %v, serially %v", i, k, m.Point[k], want[i].Point[k])
			}
		}
	}
	for i, v := range mass {
		if math.Float64bits(v) != math.Float64bits(wantMass[i]) {
			return fmt.Sprintf("mass %d: %v, serially %v", i, v, wantMass[i])
		}
	}
	return ""
}
