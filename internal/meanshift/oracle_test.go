package meanshift

import (
	"math"
	"testing"

	"radloc/internal/rng"
)

// singlePhaseFindModes is the single-phase search the two-phase one
// replaced, kept as the differential oracle: every start climbs to
// convergence on its own, with no capture. It shares the Searcher's
// scaling, kernel, gathering and merge, so a difference against
// FindModes is the phases' doing.
func singlePhaseFindModes(t testing.TB, cfg Config, points, weights, starts []float64) []Mode {
	t.Helper()
	s, err := NewSearcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := s.d
	s.weights = weights
	s.prepare(points, len(weights))
	m := s.stageStarts(starts)
	buf := s.buf(0)
	for i := 0; i < m; i++ {
		s.dens[i], s.resOK[i] = s.climb(s.resBuf[i*d:(i+1)*d], buf, false)
	}
	modes := s.mergeModes(m)
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
			got, err := FindModes(cfg, pts, ws, starts)
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
// shallow modes within MergeRadius of one another. There the greedy
// merge depends on exactly where each climb stopped, and a captured
// climb stops on its anchor instead of a point of its own, so the two
// searches can merge shallow modes differently (during development,
// 2 of 50 random-weight and 5 of 50 smooth-likelihood populations lost
// one or two modes). What must
// still hold: every start with support is counted, the two-phase
// search finds no more modes than the oracle, and each of its modes
// lies within MergeRadius of an oracle mode.
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
				got, err := FindModes(cfg, pts, ws, starts)
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
					if dist := nearest(cfg, g, want); dist > cfg.withDefaults().MergeRadius {
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
// index replaced, kept as the differential oracle: every point is
// scored against every mode in ascending index, and the strictly
// nearest mode within the cutoff takes its weight.
func assignMassOracle(cfg Config, modes []Mode, points, weights []float64, cutoff float64) []float64 {
	cfg = cfg.withDefaults()
	d := len(cfg.Bandwidth)
	if cutoff <= 0 {
		cutoff = cfg.CutoffSigmas
	}
	out := make([]float64, len(modes)+1)
	c2 := cutoff * cutoff
	for j := 0; j < len(weights); j++ {
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
// modes, non-finite modes and points, and the cutoffs ≤ 0 (the
// default), tiny, huge and +Inf.
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
	cmodes, err := FindModes(cfg, cpts, cws, sampleStarts(s, cpts, cws, 192))
	if err != nil || len(cmodes) < 2 {
		t.Fatalf("clustered population: %d modes, %v", len(cmodes), err)
	}
	cases = append(cases, tc{"clustered", cfg, cmodes, cpts, cws})

	upts, uws := uniformNoise(s, nil, nil, 5000, 100, func(_, _, _ float64) float64 { return s.Uniform(0.1, 1) })
	umodes, err := FindModes(cfg, upts, uws, sampleStarts(s, upts, uws, 192))
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
			got, err := s.AssignMass(c.modes, c.pts, c.ws, cutoff)
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
