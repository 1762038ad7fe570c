package meanshift

import (
	"fmt"
	"math"
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/rng"
	"radloc/internal/spatial"
)

// singlePhaseFindModes is the single-phase search the two-phase one
// replaced, kept as the differential oracle: every start climbs to
// convergence on its own, with no capture. It shares the search's
// scaling, kernel, gathering and merge, so a difference against
// FindModes is the phases' doing.
func singlePhaseFindModes(t testing.TB, cfg Config, points, weights, starts []float64) []Mode {
	t.Helper()
	s, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := s.d
	sr := &search{cfg: s.cfg, d: d}
	sr.prepare(view(d, points, weights))
	m := sr.stageStarts(starts)
	num := make([]float64, d)
	for i := 0; i < m; i++ {
		sr.dens[i], sr.resOK[i] = sr.climb(sr.res[i*d:(i+1)*d], num, false)
	}
	modes := sr.mergeModes(m)
	for i := range modes {
		for k := 0; k < d; k++ {
			modes[i].Point[k] *= cfg.Bandwidth[k]
		}
	}
	return modes
}

// sampleStarts draws m starts from the population by systematic
// weighted sampling, the way the localizer picks its starts.
func sampleStarts(s *rng.Stream, pts, ws []float64, m int) []float64 {
	var total float64
	for _, w := range ws {
		total += w
	}
	step := total / float64(m)
	u := s.Float64() * step
	var starts []float64
	var cum float64
	j := 0
	for k := 0; k < m; k++ {
		target := u + float64(k)*step
		for j < len(ws)-1 && cum+ws[j] < target {
			cum += ws[j]
			j++
		}
		starts = append(starts, pts[3*j], pts[3*j+1], pts[3*j+2])
	}
	return starts
}

// uniformNoise appends n points spread uniformly over [0,w]×[0,w] in
// position and [0,200] in strength, with the given weight function.
func uniformNoise(s *rng.Stream, pts, ws []float64, n int, w float64, weight func(x, y, str float64) float64) ([]float64, []float64) {
	for i := 0; i < n; i++ {
		x, y, str := s.Uniform(0, w), s.Uniform(0, w), s.Uniform(0, 200)
		pts = append(pts, x, y, str)
		ws = append(ws, weight(x, y, str))
	}
	return pts, ws
}

// TestTwoPhaseMatchesSinglePhase runs the two-phase search and the
// single-phase oracle on populations whose modes are well separated:
// two tight clusters over a uniform background, two diffuse clusters
// (spread 1.5 bandwidths), and nine clusters of different strengths.
// Both must find the same modes, each with the same Starts count, at
// positions within 1% of the bandwidth in every dimension.
func TestTwoPhaseMatchesSinglePhase(t *testing.T) {
	cases := []struct {
		name   string
		starts int
		build  func(s *rng.Stream) (pts, ws []float64)
	}{
		{"clustered", 192, func(s *rng.Stream) (pts, ws []float64) {
			pts, ws = cluster3(s, pts, ws, 800, 47, 71, 50, 2, 1)
			pts, ws = cluster3(s, pts, ws, 800, 81, 42, 50, 2, 1)
			return uniformNoise(s, pts, ws, 400, 100, func(_, _, _ float64) float64 { return s.Uniform(0.1, 1) })
		}},
		{"diffuse", 192, func(s *rng.Stream) (pts, ws []float64) {
			pts, ws = cluster3(s, pts, ws, 1000, 40, 60, 60, 6, 1)
			return cluster3(s, pts, ws, 1000, 70, 35, 60, 6, 1)
		}},
		{"nine clusters", 384, func(s *rng.Stream) (pts, ws []float64) {
			for c := 0; c < 9; c++ {
				cx, cy := 30+80*float64(c%3), 30+80*float64(c/3)
				pts, ws = cluster3(s, pts, ws, 1600, cx, cy, 10+10*float64(c), 2.5, 1)
			}
			return pts, ws
		}},
	}
	cfg := defaultCfg()
	for ci, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := rng.New(21, uint64(ci))
			pts, ws := tc.build(s)
			starts := sampleStarts(s, pts, ws, tc.starts)
			want := singlePhaseFindModes(t, cfg, pts, ws, starts)
			got, err := newSearcher(t, cfg).FindModes(view(3, pts, ws), starts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("two-phase found %d modes, single-phase %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Starts != want[i].Starts {
					t.Errorf("mode %d: %d starts, single-phase %d", i, got[i].Starts, want[i].Starts)
				}
				for k, h := range cfg.Bandwidth {
					if diff := math.Abs(got[i].Point[k] - want[i].Point[k]); diff > 0.01*h {
						t.Errorf("mode %d dim %d: %v vs single-phase %v (|Δ| %.3g > 1%% of h=%v)",
							i, k, got[i].Point[k], want[i].Point[k], diff, h)
					}
				}
			}
		})
	}
}

// TestTwoPhaseOnNoiseInventsNoMode covers rough densities, where
// particle positions are uniform noise and the density has many
// shallow modes within mergeRadius of one another. There the greedy
// merge depends on exactly where each climb stopped, and a captured
// climb stops on its anchor instead of a point of its own, so the two
// searches can merge shallow modes differently (during development,
// 2 of 50 random-weight and 5 of 50 smooth-likelihood populations lost
// one or two modes). What must
// still hold: every start with support is counted, the two-phase
// search finds no more modes than the oracle, and each of its modes
// lies within mergeRadius of an oracle mode.
func TestTwoPhaseOnNoiseInventsNoMode(t *testing.T) {
	cfg := defaultCfg()
	weights := map[string]func(s *rng.Stream) func(x, y, str float64) float64{
		"random weights": func(s *rng.Stream) func(x, y, str float64) float64 {
			return func(_, _, _ float64) float64 { return s.Uniform(0.1, 1) }
		},
		"smooth two-source likelihood": func(*rng.Stream) func(x, y, str float64) float64 {
			return func(x, y, str float64) float64 {
				d1 := (x-47)*(x-47) + (y-71)*(y-71) + (str-50)*(str-50)/20
				d2 := (x-81)*(x-81) + (y-42)*(y-42) + (str-50)*(str-50)/20
				return 0.01 + math.Exp(-d1/450) + math.Exp(-d2/450)
			}
		},
	}
	for name, weight := range weights {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(0); seed < 8; seed++ {
				s := rng.New(22, seed)
				pts, ws := uniformNoise(s, nil, nil, 2000, 100, weight(s))
				starts := sampleStarts(s, pts, ws, 192)
				want := singlePhaseFindModes(t, cfg, pts, ws, starts)
				got, err := newSearcher(t, cfg).FindModes(view(3, pts, ws), starts)
				if err != nil {
					t.Fatal(err)
				}
				if total(got) != total(want) {
					t.Errorf("seed %d: two-phase counts %d starts, single-phase %d", seed, total(got), total(want))
				}
				if len(got) > len(want) {
					t.Errorf("seed %d: two-phase found %d modes, more than single-phase's %d", seed, len(got), len(want))
				}
				for i, g := range got {
					if dist := nearest(cfg, g, want); dist > mergeRadius {
						t.Errorf("seed %d: two-phase mode %d is %.3f scaled units from every single-phase mode", seed, i, dist)
					}
				}
			}
		})
	}
}

// total sums the modes' Starts.
func total(modes []Mode) int {
	n := 0
	for _, m := range modes {
		n += m.Starts
	}
	return n
}

// nearest returns the scaled-space distance from m to the closest of
// modes.
func nearest(cfg Config, m Mode, modes []Mode) float64 {
	best := math.Inf(1)
	for _, o := range modes {
		var d2 float64
		for k, h := range cfg.Bandwidth {
			diff := (m.Point[k] - o.Point[k]) / h
			d2 += diff * diff
		}
		best = math.Min(best, math.Sqrt(d2))
	}
	return best
}

// assignMassOracle is the exhaustive mass assignment the candidate
// index replaced, kept as the differential oracle: every point with
// positive weight is scored against every mode in ascending index, and
// the strictly nearest mode within the cutoff takes its weight.
func assignMassOracle(cfg Config, modes []Mode, points, weights []float64, cutoff float64) []float64 {
	cfg = cfg.withDefaults()
	d := len(cfg.Bandwidth)
	if cutoff <= 0 {
		cutoff = cfg.CutoffSigmas
	}
	out := make([]float64, len(modes)+1)
	c2 := cutoff * cutoff
	for j := 0; j < len(weights); j++ {
		if weights[j] <= 0 {
			continue
		}
		best := -1
		bestD2 := math.Inf(1)
		for mi := range modes {
			var d2 float64
			for k := 0; k < d; k++ {
				diff := (points[j*d+k] - modes[mi].Point[k]) * (1 / cfg.Bandwidth[k])
				d2 += diff * diff
			}
			if d2 < bestD2 {
				bestD2 = d2
				best = mi
			}
		}
		if best >= 0 && bestD2 <= c2 {
			out[best] += weights[j]
		} else {
			out[len(modes)] += weights[j]
		}
	}
	return out
}

// withNonPositive returns a copy of ws with every fourth weight zero
// and every 25th negative.
func withNonPositive(ws []float64) []float64 {
	out := append([]float64(nil), ws...)
	for j := range out {
		switch {
		case j%25 == 0:
			out[j] = -out[j]
		case j%4 == 0:
			out[j] = 0
		}
	}
	return out
}

// modesAt builds modes at the given flat coordinates.
func modesAt(d int, coords ...float64) []Mode {
	var modes []Mode
	for i := 0; i+d <= len(coords); i += d {
		modes = append(modes, Mode{Point: append([]float64(nil), coords[i:i+d]...)})
	}
	return modes
}

// TestAssignMassMatchesOracle demands bit-identical per-mode totals
// from the candidate-pruned AssignMass and the exhaustive oracle, on
// one reused Searcher: clustered and uniform populations with their
// own modes and with random ones, points exactly one cutoff (and one
// ulp either side of it) from a mode, modes outside the points'
// bounds, coincident modes (the lowest index must win the tie), no
// modes, non-finite modes and points, weights ≤ 0 (credited nowhere),
// and the cutoffs ≤ 0 (the default), tiny, huge and +Inf.
func TestAssignMassMatchesOracle(t *testing.T) {
	type tc struct {
		name    string
		cfg     Config
		modes   []Mode
		pts, ws []float64
	}
	var cases []tc
	cfg := defaultCfg()

	s := rng.New(31, 1)
	var cpts, cws []float64
	cpts, cws = cluster3(s, cpts, cws, 3000, 47, 71, 50, 2, 1)
	cpts, cws = cluster3(s, cpts, cws, 3000, 81, 42, 50, 2, 1)
	cpts, cws = uniformNoise(s, cpts, cws, 2000, 100, func(_, _, _ float64) float64 { return s.Uniform(0.1, 1) })
	cmodes, err := newSearcher(t, cfg).FindModes(view(3, cpts, cws), sampleStarts(s, cpts, cws, 192))
	if err != nil || len(cmodes) < 2 {
		t.Fatalf("clustered population: %d modes, %v", len(cmodes), err)
	}
	cases = append(cases, tc{"clustered", cfg, cmodes, cpts, cws})

	upts, uws := uniformNoise(s, nil, nil, 5000, 100, func(_, _, _ float64) float64 { return s.Uniform(0.1, 1) })
	umodes, err := newSearcher(t, cfg).FindModes(view(3, upts, uws), sampleStarts(s, upts, uws, 192))
	if err != nil || len(umodes) < 2 {
		t.Fatalf("uniform population: %d modes, %v", len(umodes), err)
	}
	cases = append(cases, tc{"uniform", cfg, umodes, upts, uws})

	var rmodes []Mode
	for i := 0; i < 60; i++ {
		rmodes = append(rmodes, Mode{Point: []float64{s.Uniform(0, 100), s.Uniform(0, 100), s.Uniform(0, 200)}})
	}
	cases = append(cases, tc{"uniform, 60 random modes", cfg, rmodes, upts, uws})

	// Points one cutoff (3 bandwidths here) from a mode along each axis
	// and the diagonal, and one ulp inside and outside of that.
	edge := modesAt(3, 50, 50, 100, 62.5, 50, 100)
	var epts, ews []float64
	for _, m := range edge {
		for _, off := range [][2]float64{{12, 0}, {-12, 0}, {0, 12}, {0, -12}, {12 / math.Sqrt2, 12 / math.Sqrt2}} {
			for _, ulp := range []float64{-1, 0, 1} {
				x := m.Point[0] + off[0]
				y := m.Point[1] + off[1]
				epts = append(epts, math.Nextafter(x, x+ulp), y, 100, x, math.Nextafter(y, y+ulp), 100)
				ews = append(ews, 1+s.Float64(), 1+s.Float64())
			}
		}
	}
	cases = append(cases, tc{"one cutoff away", cfg, edge, epts, ews})

	cases = append(cases,
		tc{"modes outside the points", cfg, modesAt(3, -500, -500, 50, 1e4, 30, 80, 48, 70, 50, 150, 150, 60), cpts, cws},
		tc{"coincident modes", cfg, modesAt(3, 47, 71, 50, 81, 42, 50, 47, 71, 50, 81, 42, 50), cpts, cws},
		tc{"no modes", cfg, nil, cpts, cws},
		tc{"zero and negative weights", cfg, cmodes, cpts, withNonPositive(cws)},
		tc{"non-finite modes", cfg, []Mode{
			{Point: []float64{math.NaN(), 71, 50}},
			{Point: []float64{47, math.Inf(1), 50}},
			{Point: []float64{47, 71, math.NaN()}},
			{Point: []float64{81, 42, 50}},
		}, cpts, cws},
		tc{"non-finite points", cfg, modesAt(3, 47, 71, 50, 81, 42, 50),
			[]float64{math.NaN(), 71, 50, 47, math.Inf(-1), 50, 81, 42, math.Inf(1), 81, 42, 50},
			[]float64{1, 2, 3, 4}},
		tc{"two dimensions", Config{Bandwidth: []float64{2, 5}}, modesAt(2, 10, 10, 30, 30, 10, 40),
			[]float64{10, 10, 11, 14, 30, 45, 16, 10, 10, 25, 9.5, 39},
			[]float64{1, 2, 3, 4, 5, 6}},
	)

	searcher, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		for _, cutoff := range []float64{3, 0, -1, 1e-9, 1e6, math.Inf(1)} {
			s := searcher
			if len(c.cfg.Bandwidth) != len(cfg.Bandwidth) || c.cfg.Bandwidth[0] != cfg.Bandwidth[0] {
				if s, err = NewSearcher(c.cfg); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.AssignMass(c.modes, view(len(c.cfg.Bandwidth), c.pts, c.ws), cutoff)
			if err != nil {
				t.Fatal(err)
			}
			want := assignMassOracle(c.cfg, c.modes, c.pts, c.ws, cutoff)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("%s, cutoff %v: slot %d = %v, oracle %v", c.name, cutoff, i, got[i], want[i])
				}
			}
		}
	}
}

// gatherSlack is the gather oracle's slack: a climbing point
// re-gathers its neighbourhood, at radius CutoffSigmas + gatherSlack,
// only after drifting gatherSlack from where it last gathered.
const gatherSlack = 2.0

// gatherSearch is the gather climb that the in-place cell scan
// replaced, kept as the bitwise oracle. It indexes the scaled points
// in buckets over the same cells (ascending index within a bucket),
// and every climb copies the positive-weight points of its
// neighbourhood — the cells a disc of radius CutoffSigmas +
// gatherSlack overlaps, row-major, filtered by distance — into dense
// arrays, re-gathering once it drifts gatherSlack away. Staging,
// phases, capture and merge are the search's, climbed serially.
type gatherSearch struct {
	*search
	weights []float64
	scaled  []float64 // n×d
	pts     []geometry.Vec
	cells   spatial.Cells
	buckets [][]int

	ids                   []int
	w, gx, gy, gz, coords []float64
	num                   []float64
}

// gatherFindModes runs the gather oracle's search.
func gatherFindModes(t testing.TB, cfg Config, points, weights, starts []float64) []Mode {
	t.Helper()
	s, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := s.d
	sr := &search{cfg: s.cfg, d: d}
	g := &gatherSearch{search: sr, weights: weights, num: make([]float64, d)}
	g.index(points)
	m := sr.stageStarts(starts)
	for i := 0; i < m; i += phase1Stride {
		sr.dens[i], sr.resOK[i] = g.climb(sr.res[i*d:(i+1)*d], false)
	}
	for i := 0; i < m; i += phase1Stride {
		if sr.resOK[i] {
			sr.anchors = append(sr.anchors, sr.res[i*d:(i+1)*d]...)
			sr.anchorDens = append(sr.anchorDens, sr.dens[i])
		}
	}
	for i := 0; i < m; i++ {
		if i%phase1Stride != 0 {
			sr.dens[i], sr.resOK[i] = g.climb(sr.res[i*d:(i+1)*d], true)
		}
	}
	modes := sr.mergeModes(m)
	for i := range modes {
		for k := 0; k < d; k++ {
			modes[i].Point[k] *= cfg.Bandwidth[k]
		}
	}
	return modes
}

// index scales the points and buckets every one of them by cell over
// the bounding box of those with positive weight: the points with
// weight ≤ 0 are bucketed too (the gather skips them) but, as in
// search.prepare, do not span the box.
func (g *gatherSearch) index(points []float64) {
	d := g.d
	n := len(points) / d
	lo := geometry.V(math.Inf(1), math.Inf(1))
	hi := geometry.V(math.Inf(-1), math.Inf(-1))
	for j := 0; j < n; j++ {
		for k := 0; k < d; k++ {
			g.scaled = append(g.scaled, points[j*d+k]/g.cfg.Bandwidth[k])
		}
		p := geometry.V(g.scaled[j*d], g.scaled[j*d+1])
		g.pts = append(g.pts, p)
		if g.weights[j] <= 0 {
			continue
		}
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	g.cells = spatial.NewCells(geometry.NewRect(lo, hi), g.cfg.CutoffSigmas)
	nx, ny := g.cells.Dims()
	g.buckets = make([][]int, nx*ny)
	for j, p := range g.pts {
		c := g.cells.Index(p)
		g.buckets[c] = append(g.buckets[c], j)
	}
}

// withinRadius sets ids to the points within r of center: the buckets
// of the cells the disc's bounding square overlaps, row-major.
func (g *gatherSearch) withinRadius(center geometry.Vec, r float64) {
	g.ids = g.ids[:0]
	r2 := r * r
	nx, _ := g.cells.Dims()
	x0, y0 := g.cells.Coords(geometry.V(center.X-r, center.Y-r))
	x1, y1 := g.cells.Coords(geometry.V(center.X+r, center.Y+r))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range g.buckets[cy*nx+cx] {
				if g.pts[id].Dist2(center) <= r2 {
					g.ids = append(g.ids, id)
				}
			}
		}
	}
}

// climb is search.climb over gathered neighbourhoods.
func (g *gatherSearch) climb(x []float64, capture bool) (float64, bool) {
	cfg := g.cfg
	d := g.d
	r2cut := cfg.CutoffSigmas * cfg.CutoffSigmas
	exact := cfg.ExactKernel
	tol2 := climbTol * climbTol
	capR := captureFrac * mergeRadius
	cap2 := capR * capR
	var ax, ay float64
	gathered := false
	var dens float64
	for iter := 0; iter < climbMaxIter; iter++ {
		if dx, dy := x[0]-ax, x[1]-ay; !gathered || dx*dx+dy*dy > gatherSlack*gatherSlack {
			ax, ay = x[0], x[1]
			g.withinRadius(geometry.V(ax, ay), cfg.CutoffSigmas+gatherSlack)
			g.w, g.gx, g.gy, g.gz, g.coords = g.w[:0], g.gx[:0], g.gy[:0], g.gz[:0], g.coords[:0]
			for _, j := range g.ids {
				if g.weights[j] <= 0 {
					continue
				}
				g.w = append(g.w, g.weights[j])
				if d == 3 {
					g.gx = append(g.gx, g.scaled[3*j])
					g.gy = append(g.gy, g.scaled[3*j+1])
					g.gz = append(g.gz, g.scaled[3*j+2])
				} else {
					g.coords = append(g.coords, g.scaled[j*d:(j+1)*d]...)
				}
			}
			gathered = true
		}

		var denom float64
		if d == 3 {
			x0, x1, x2 := x[0], x[1], x[2]
			var n0, n1, n2 float64
			for i := range g.gx {
				dx := x0 - g.gx[i]
				dy := x1 - g.gy[i]
				if dx*dx+dy*dy > r2cut {
					continue
				}
				dz := x2 - g.gz[i]
				d2 := dx*dx + dy*dy + dz*dz
				kv := g.w[i] * expNegHalf(d2, exact)
				denom += kv
				n0 += kv * g.gx[i]
				n1 += kv * g.gy[i]
				n2 += kv * g.gz[i]
			}
			g.num[0], g.num[1], g.num[2] = n0, n1, n2
		} else {
			clear(g.num)
			for i, w := range g.w {
				base := i * d
				dx := x[0] - g.coords[base]
				dy := x[1] - g.coords[base+1]
				if dx*dx+dy*dy > r2cut {
					continue
				}
				d2 := dx*dx + dy*dy
				for k := 2; k < d; k++ {
					diff := x[k] - g.coords[base+k]
					d2 += diff * diff
				}
				kv := w * expNegHalf(d2, exact)
				denom += kv
				for k := 0; k < d; k++ {
					g.num[k] += kv * g.coords[base+k]
				}
			}
		}
		if denom <= 0 {
			return 0, false
		}
		var move float64
		for k := 0; k < d; k++ {
			nx := g.num[k] / denom
			diff := nx - x[k]
			move += diff * diff
			x[k] = nx
		}
		dens = denom
		if capture {
			for a, ad := range g.anchorDens {
				anchor := g.anchors[a*d : (a+1)*d]
				var dist2 float64
				for k, v := range anchor {
					diff := v - x[k]
					dist2 += diff * diff
				}
				if dist2 <= cap2 {
					copy(x, anchor)
					return ad, true
				}
			}
		}
		if move < tol2 {
			return dens, true
		}
	}
	return dens, true
}

// randomPopulation draws n points in d dimensions: with clustered
// set, Gaussian clusters (spread 1–3 bandwidths) over a uniform
// background, otherwise uniform over [0,100]² in position and
// [0,200] beyond. With zeros set, about a quarter of the weights are
// zero (and a few negative); the rest are uniform on (0.05, 1].
func randomPopulation(s *rng.Stream, d, n int, clustered, zeros bool) (pts, ws []float64) {
	var centres [][]float64
	if clustered {
		for c := 0; c < 1+s.IntN(5); c++ {
			cc := []float64{s.Uniform(10, 90), s.Uniform(10, 90)}
			for k := 2; k < d; k++ {
				cc = append(cc, s.Uniform(20, 180))
			}
			centres = append(centres, cc)
		}
	}
	for i := 0; i < n; i++ {
		if len(centres) > 0 && s.Float64() < 0.8 {
			c := centres[s.IntN(len(centres))]
			spread := s.Uniform(1, 3)
			pts = append(pts, s.Normal(c[0], 4*spread), s.Normal(c[1], 4*spread))
			for k := 2; k < d; k++ {
				pts = append(pts, s.Normal(c[k], 30*spread))
			}
		} else {
			pts = append(pts, s.Uniform(0, 100), s.Uniform(0, 100))
			for k := 2; k < d; k++ {
				pts = append(pts, s.Uniform(0, 200))
			}
		}
		w := s.Uniform(0.05, 1)
		if zeros {
			switch u := s.Float64(); {
			case u < 0.25:
				w = 0
			case u < 0.27:
				w = -w
			}
		}
		ws = append(ws, w)
	}
	return pts, ws
}

// TestCellScanMatchesGatherOracle demands bit-identical modes — every
// point coordinate, density and Starts count — from FindModes and the
// gather oracle, at 1, 2, 3 and 8 workers: random and clustered
// populations with and without zero and negative weights, in 2, 3 and
// 4 dimensions, with the table and the exact kernel, at the default
// and a short cutoff, over bounds so wide that the cell count cap
// doubles the cell side, over coincident points, and with starts far
// outside the points.
func TestCellScanMatchesGatherOracle(t *testing.T) {
	type tc struct {
		name    string
		cfg     Config
		pts, ws []float64
		starts  []float64
	}
	bw := map[int][]float64{2: {4, 4}, 3: {4, 4, 30}, 4: {4, 4, 30, 20}}
	var cases []tc
	s := rng.New(51, 1)
	for p := 0; p < 24; p++ {
		d := 2 + p%3
		clustered, zeros := p%2 == 0, p%4 < 2
		cfg := Config{Bandwidth: bw[d], ExactKernel: p%5 == 0}
		if p%6 == 5 {
			cfg.CutoffSigmas = 2.5
		}
		pts, ws := randomPopulation(s, d, 200+s.IntN(2500), clustered, zeros)
		var starts []float64
		for i, m := 0, 32+s.IntN(160); i < m; i++ {
			j := s.IntN(len(ws))
			starts = append(starts, pts[j*d:(j+1)*d]...)
		}
		name := fmt.Sprintf("d%d clustered=%v zeros=%v exact=%v cutoff=%v #%d", d, clustered, zeros, cfg.ExactKernel, cfg.CutoffSigmas, p)
		cases = append(cases, tc{name, cfg, pts, ws, starts})
	}

	pts, ws := randomPopulation(s, 3, 2000, true, false)
	starts := append([]float64(nil), pts[:3*96]...)
	starts = append(starts, -1e4, 50, 100, 50, 1e4, 100, 1e6, -1e6, 0)
	cases = append(cases,
		tc{"tiny bandwidth: capped cell count", Config{Bandwidth: []float64{1e-3, 2e-3, 30}}, pts, ws, starts},
		tc{"starts far outside", Config{Bandwidth: bw[3]}, pts, ws, starts})

	var same, sameW []float64
	for i := 0; i < 300; i++ {
		same = append(same, 40, 60, 80)
		sameW = append(sameW, float64(i%3))
	}
	cases = append(cases, tc{"coincident points", Config{Bandwidth: bw[3]}, same, sameW, []float64{40, 60, 80, 41, 61, 90, 70, 70, 70}})

	for _, c := range cases {
		want := gatherFindModes(t, c.cfg, c.pts, c.ws, c.starts)
		for _, workers := range []int{1, 2, 3, 8} {
			cfg := c.cfg
			cfg.Workers = workers
			got, err := newSearcher(t, cfg).FindModes(view(len(cfg.Bandwidth), c.pts, c.ws), c.starts)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s, %d workers: %d modes, oracle %d", c.name, workers, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i].Density) != math.Float64bits(want[i].Density) || got[i].Starts != want[i].Starts {
					t.Fatalf("%s, %d workers, mode %d: (density %v, starts %d), oracle (%v, %d)",
						c.name, workers, i, got[i].Density, got[i].Starts, want[i].Density, want[i].Starts)
				}
				for k := range want[i].Point {
					if math.Float64bits(got[i].Point[k]) != math.Float64bits(want[i].Point[k]) {
						t.Fatalf("%s, %d workers, mode %d dim %d: %v, oracle %v",
							c.name, workers, i, k, got[i].Point[k], want[i].Point[k])
					}
				}
			}
		}
	}
}
