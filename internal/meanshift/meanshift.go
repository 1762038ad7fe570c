// Package meanshift implements the weighted kernel-density mode seeking
// of Comaniciu & Meer that the paper uses to turn the particle
// population into source estimates (Section V-D, Eq. 6–7).
//
// Points live in R^d with a diagonal Gaussian bandwidth; the search
// runs in "scaled space" where every coordinate is divided by its
// bandwidth, making the kernel isotropic. Starts are iterated with
//
//	x_{i+1} = Σ_j p_j w_j K(x_i − p_j) / Σ_j w_j K(x_i − p_j)
//
// until convergence; converged points within MergeRadius of each other
// are merged into one mode. Points beyond CutoffSigmas in scaled
// spatial (first-two-dimension) distance are ignored — the truncation
// discards at most exp(−CutoffSigmas²/2) (≈ 3·10⁻⁴ at the default 4)
// of any point's relative spatial contribution.
//
// The climbs run in two phases. Phase 1 climbs every eighth start to
// convergence. Phase 2 climbs the rest, and after every iteration
// checks the climbing point against the phase-1 results in phase-1
// order: once it is within a quarter of MergeRadius of one, the climb
// stops there and takes that result's point and density, since the
// merge would have joined the two anyway. Most climbs end a few
// iterations early this way. Phase 2 starts only after phase 1 has
// finished and reads only phase-1 results, so the modes do not depend
// on the worker count or on scheduling.
//
// The paper reports that mean-shift dominates its runtime and
// parallelizes well. A Searcher distributes each phase's starts across
// Workers goroutines and owns reusable scratch (the scaled copy, the
// spatial prune grid, gathered neighbourhoods), so repeated searches
// over populations of similar size allocate almost nothing; see
// DESIGN.md §11 for the performance model. FindModes remains as a
// convenience wrapper for one-shot searches.
package meanshift

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"radloc/internal/geometry"
	"radloc/internal/spatial"
)

// Config controls the mode search. Zero values of MaxIter, Tol,
// MergeRadius, CutoffSigmas and Workers select the documented defaults.
type Config struct {
	// Bandwidth is the per-dimension kernel bandwidth h_k (> 0). Its
	// length fixes the dimensionality d ≥ 2; the first two dimensions
	// must be the spatial ones (they drive neighbour pruning).
	Bandwidth []float64
	// MaxIter bounds the iterations per start (default 100).
	MaxIter int
	// Tol is the scaled-space movement below which a start has
	// converged (default 1e-3).
	Tol float64
	// MergeRadius is the scaled-space distance within which two
	// converged points are one mode (default 1.0).
	MergeRadius float64
	// CutoffSigmas is the scaled-space radius beyond which kernel
	// contributions are ignored (default 4).
	CutoffSigmas float64
	// Workers is the number of goroutines iterating starts (default
	// runtime.GOMAXPROCS(0)). The worker count never changes the
	// result: climbs within a phase are independent, phase 2 reads only
	// phase-1 results, and results merge in a fixed order.
	Workers int
	// ExactKernel forces math.Exp for the Gaussian kernel instead of
	// the default table-interpolated exponential. The table's relative
	// error (≈ 5·10⁻⁷) sits three orders of magnitude below the
	// CutoffSigmas truncation error, so this exists for verification,
	// not accuracy.
	ExactKernel bool
}

func (c Config) withDefaults() Config {
	if c.MaxIter <= 0 {
		c.MaxIter = 100
	}
	if c.Tol <= 0 {
		c.Tol = 1e-3
	}
	if c.MergeRadius <= 0 {
		c.MergeRadius = 1.0
	}
	if c.CutoffSigmas <= 0 {
		c.CutoffSigmas = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

func (c Config) validate() error {
	if len(c.Bandwidth) < 2 {
		return fmt.Errorf("meanshift: need ≥ 2 dimensions, got %d", len(c.Bandwidth))
	}
	for k, h := range c.Bandwidth {
		if h <= 0 || math.IsNaN(h) || math.IsInf(h, 0) {
			return fmt.Errorf("meanshift: bandwidth[%d] = %v", k, h)
		}
	}
	return nil
}

// Mode is a local maximum of the weighted kernel density.
type Mode struct {
	// Point is the mode location in original (unscaled) coordinates.
	Point []float64
	// Density is the unnormalized kernel density Σ w_j K at the mode.
	Density float64
	// Starts is the number of start points that converged to this mode.
	Starts int
}

// ErrDimensionMismatch is returned when points, weights, or starts do
// not agree with the configured dimensionality.
var ErrDimensionMismatch = errors.New("meanshift: dimension mismatch")

// gatherSlack is the scaled-space distance a climbing point may drift
// from its last neighbourhood query before the neighbourhood is
// re-gathered. Gathering queries the grid with radius CutoffSigmas +
// gatherSlack, so every point within the cutoff of the drifted position
// is still present; the kernel loop's own cutoff test discards the
// ring. Mean-shift steps shrink geometrically near a mode, so most
// iterations reuse the gathered neighbourhood instead of re-walking
// grid cells. 2σ of slack roughly doubles the gathered area at the
// default cutoff but lets a typical climb gather once or twice total.
const gatherSlack = 2.0

// phase1Stride spaces the phase-1 starts: starts 0, phase1Stride,
// 2·phase1Stride, … (in the caller's order) climb to convergence, and
// every other start climbs in phase 2 against their results.
const phase1Stride = 8

// captureFrac sets the phase-2 capture radius as a fraction of
// MergeRadius. A phase-2 climb that comes within captureFrac·MergeRadius
// of a phase-1 result would be merged with it anyway; the quarter
// leaves the rest of MergeRadius as margin for the distance the
// captured climb would still have moved on its own.
const captureFrac = 0.25

// Searcher runs repeated mode searches with reusable scratch: the
// bandwidth-scaled point copy, the spatial prune grid, per-worker
// gathered neighbourhoods, and the start/result staging buffers all
// persist across calls. A Searcher is not safe for concurrent use; one
// FindModes call parallelizes internally across Config.Workers
// goroutines.
type Searcher struct {
	cfg Config
	d   int

	// Per-call views of the caller's data (valid during one search).
	weights []float64

	scaled []float64      // bandwidth-scaled point coordinates, n×d
	pts    []geometry.Vec // scaled 2-D positions for the prune grid
	grid   *spatial.Grid

	ord []int // start indices: a phase's climb list, then the merge order

	resBuf []float64 // scaled starts, m×d, climbed in place into results
	resOK  []bool
	dens   []float64
	invBW  []float64 // reciprocal bandwidths for AssignMass
	mass   massIndex // AssignMass's candidate index over the modes

	anchors    []float64 // phase-1 results with support, in phase-1 order, k×d
	anchorDens []float64 // their densities

	bufs []*climbBuf // one per worker slot
}

// climbBuf is one worker's gathered neighbourhood: the IDs the grid
// returned, their positive weights, and their coordinates copied into
// dense arrays so the kernel loop streams contiguously. The d == 3
// search space gathers one array per coordinate — the spatial cutoff
// test then reads only the gx/gy streams, and the strength stream is
// touched only for points that pass; higher dimensions use the
// interleaved coords array.
type climbBuf struct {
	ids        []int
	w          []float64
	gx, gy, gz []float64
	coords     []float64
	num        []float64
}

// NewSearcher validates and defaults cfg and returns a Searcher ready
// for repeated FindModes/AssignMass calls.
func NewSearcher(cfg Config) (*Searcher, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Searcher{
		cfg:  cfg,
		d:    len(cfg.Bandwidth),
		grid: spatial.NewGrid(geometry.NewRect(geometry.V(0, 0), geometry.V(1, 1)), cfg.CutoffSigmas),
	}, nil
}

// FindModes locates the density modes reachable from the given starts.
//
// points is a flat array of n·d coordinates (point j at
// points[j*d:(j+1)*d]); weights holds the n non-negative point weights;
// starts is a flat array of m·d start coordinates. The returned modes
// are sorted by descending density; Mode.Starts counts the starts
// whose climbs merged into each mode.
func (s *Searcher) FindModes(points, weights, starts []float64) ([]Mode, error) {
	d := s.d
	if len(points)%d != 0 || len(starts)%d != 0 {
		return nil, fmt.Errorf("%w: %d coords, %d starts, dim %d", ErrDimensionMismatch, len(points), len(starts), d)
	}
	n := len(points) / d
	if len(weights) != n {
		return nil, fmt.Errorf("%w: %d weights for %d points", ErrDimensionMismatch, len(weights), n)
	}
	if n == 0 || len(starts) == 0 {
		return nil, nil
	}
	s.weights = weights
	defer func() { s.weights = nil }()

	s.prepare(points, n)
	m := s.stageStarts(starts)
	s.runClimbs(m)
	modes := s.mergeModes(m)
	for i := range modes {
		for k := 0; k < d; k++ {
			modes[i].Point[k] *= s.cfg.Bandwidth[k]
		}
	}
	return modes, nil
}

// prepare scales the points into the reusable buffers and rebuilds the
// 2-D prune grid over them.
func (s *Searcher) prepare(points []float64, n int) {
	d := s.d
	s.scaled = s.scaled[:0]
	if cap(s.scaled) < len(points) {
		s.scaled = make([]float64, 0, len(points))
	}
	if cap(s.pts) < n {
		s.pts = make([]geometry.Vec, 0, n)
	}
	s.pts = s.pts[:n]
	lo := geometry.V(math.Inf(1), math.Inf(1))
	hi := geometry.V(math.Inf(-1), math.Inf(-1))
	for j := 0; j < n; j++ {
		for k := 0; k < d; k++ {
			s.scaled = append(s.scaled, points[j*d+k]/s.cfg.Bandwidth[k])
		}
		p := geometry.V(s.scaled[j*d], s.scaled[j*d+1])
		s.pts[j] = p
		lo.X = math.Min(lo.X, p.X)
		lo.Y = math.Min(lo.Y, p.Y)
		hi.X = math.Max(hi.X, p.X)
		hi.Y = math.Max(hi.Y, p.Y)
	}
	s.grid.Reset(geometry.NewRect(lo, hi), s.cfg.CutoffSigmas)
	s.grid.Rebuild(s.pts)
}

// stageStarts scales the starts into the result slots they climb in
// and returns their count.
func (s *Searcher) stageStarts(starts []float64) int {
	d := s.d
	m := len(starts) / d
	if cap(s.resBuf) < len(starts) {
		s.resBuf = make([]float64, len(starts))
		s.resOK = make([]bool, m)
		s.dens = make([]float64, m)
	}
	s.resBuf = s.resBuf[:len(starts)]
	s.resOK = s.resOK[:m]
	s.dens = s.dens[:m]
	for i, v := range starts {
		s.resBuf[i] = v / s.cfg.Bandwidth[i%d]
	}
	return m
}

// runClimbs climbs all m staged starts in two phases. Phase 1 climbs
// every phase1Stride-th start to convergence; its results with support
// become the anchors, in start order. Phase 2 climbs the remaining
// starts, each ending early once it comes within the capture radius of
// an anchor. Each climb writes only its own result slot and phase 2
// reads only phase-1 results, so scheduling cannot influence the
// outcome.
func (s *Searcher) runClimbs(m int) {
	d := s.d
	s.ord = s.ord[:0]
	for i := 0; i < m; i += phase1Stride {
		s.ord = append(s.ord, i)
	}
	s.climbAll(s.ord, false)

	s.anchors = s.anchors[:0]
	s.anchorDens = s.anchorDens[:0]
	for _, i := range s.ord {
		if s.resOK[i] {
			s.anchors = append(s.anchors, s.resBuf[i*d:(i+1)*d]...)
			s.anchorDens = append(s.anchorDens, s.dens[i])
		}
	}

	s.ord = s.ord[:0]
	for i := 0; i < m; i++ {
		if i%phase1Stride != 0 {
			s.ord = append(s.ord, i)
		}
	}
	s.climbAll(s.ord, true)
}

// climbAll climbs the starts listed in idx, inline for one worker and
// over a goroutine pool otherwise; capture selects phase-2 climbs.
func (s *Searcher) climbAll(idx []int, capture bool) {
	d := s.d
	workers := s.cfg.Workers
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers <= 1 {
		buf := s.buf(0)
		for _, i := range idx {
			s.dens[i], s.resOK[i] = s.climb(s.resBuf[i*d:(i+1)*d], buf, capture)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		buf := s.buf(w)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idx) {
					return
				}
				i := idx[k]
				s.dens[i], s.resOK[i] = s.climb(s.resBuf[i*d:(i+1)*d], buf, capture)
			}
		}()
	}
	wg.Wait()
}

// buf returns worker w's climb scratch, growing the pool on first use.
func (s *Searcher) buf(w int) *climbBuf {
	for len(s.bufs) <= w {
		s.bufs = append(s.bufs, &climbBuf{
			ids: make([]int, 0, 256),
			num: make([]float64, s.d),
		})
	}
	return s.bufs[w]
}

// climb runs the mean-shift iteration in scaled space, mutating x in
// place. It reports the final kernel density and whether the start ever
// saw any support. With capture set (phase 2), the climb ends after the
// first iteration that leaves x within the capture radius of an anchor
// and returns that anchor's point and density.
//
// The neighbourhood is gathered once per gatherSlack of movement: grid
// IDs resolve to a dense (weight, coordinates) copy so the kernel loop
// streams sequential memory, and subsequent iterations skip the grid
// walk entirely until the point drifts out of the slack disc. The
// spatial cutoff test inside the loop discards the slack ring, so the
// result is independent of how the neighbourhood was gathered.
func (s *Searcher) climb(x []float64, buf *climbBuf, capture bool) (float64, bool) {
	cfg := s.cfg
	d := s.d
	r2cut := cfg.CutoffSigmas * cfg.CutoffSigmas
	exact := cfg.ExactKernel
	tol2 := cfg.Tol * cfg.Tol
	capR := captureFrac * cfg.MergeRadius
	cap2 := capR * capR
	var ax, ay float64
	gathered := false
	var dens float64
	for iter := 0; iter < cfg.MaxIter; iter++ {
		if dx, dy := x[0]-ax, x[1]-ay; !gathered || dx*dx+dy*dy > gatherSlack*gatherSlack {
			ax, ay = x[0], x[1]
			buf.ids = s.grid.WithinRadius(geometry.V(ax, ay), cfg.CutoffSigmas+gatherSlack, buf.ids[:0])
			buf.w = buf.w[:0]
			if d == 3 {
				buf.gx, buf.gy, buf.gz = buf.gx[:0], buf.gy[:0], buf.gz[:0]
				for _, j := range buf.ids {
					if s.weights[j] <= 0 {
						continue
					}
					buf.w = append(buf.w, s.weights[j])
					buf.gx = append(buf.gx, s.scaled[3*j])
					buf.gy = append(buf.gy, s.scaled[3*j+1])
					buf.gz = append(buf.gz, s.scaled[3*j+2])
				}
			} else {
				buf.coords = buf.coords[:0]
				for _, j := range buf.ids {
					if s.weights[j] <= 0 {
						continue
					}
					buf.w = append(buf.w, s.weights[j])
					buf.coords = append(buf.coords, s.scaled[j*d:(j+1)*d]...)
				}
			}
			gathered = true
		}

		var denom float64
		if d == 3 {
			// The localizer's (x, y, strength) search space — worth its
			// own loop: per-coordinate streams and scalar accumulators.
			x0, x1, x2 := x[0], x[1], x[2]
			var n0, n1, n2 float64
			gx := buf.gx
			gy := buf.gy[:len(gx)]
			gz := buf.gz[:len(gx)]
			ws := buf.w[:len(gx)]
			for i := range gx {
				dx := x0 - gx[i]
				dy := x1 - gy[i]
				if dx*dx+dy*dy > r2cut {
					continue
				}
				dz := x2 - gz[i]
				d2 := dx*dx + dy*dy + dz*dz
				// expNegHalf, spelled out: the call (with its math.Exp
				// fallback) is past the inliner's budget, and the kernel
				// is the single hottest expression in the filter.
				var e float64
				if d2 < expTableMax && !exact {
					t := d2 * expTableInvStep
					ti := int(t)
					f := t - float64(ti)
					e = expTable[ti] + f*(expTable[ti+1]-expTable[ti])
				} else {
					e = math.Exp(-0.5 * d2)
				}
				kv := ws[i] * e
				denom += kv
				n0 += kv * gx[i]
				n1 += kv * gy[i]
				n2 += kv * gz[i]
			}
			buf.num[0], buf.num[1], buf.num[2] = n0, n1, n2
		} else {
			num := buf.num
			for k := range num {
				num[k] = 0
			}
			for i, w := range buf.w {
				base := i * d
				dx := x[0] - buf.coords[base]
				dy := x[1] - buf.coords[base+1]
				if dx*dx+dy*dy > r2cut {
					continue
				}
				d2 := dx*dx + dy*dy
				for k := 2; k < d; k++ {
					diff := x[k] - buf.coords[base+k]
					d2 += diff * diff
				}
				kv := w * expNegHalf(d2, exact)
				denom += kv
				for k := 0; k < d; k++ {
					num[k] += kv * buf.coords[base+k]
				}
			}
		}
		if denom <= 0 {
			return 0, false
		}
		var move float64
		for k := 0; k < d; k++ {
			nx := buf.num[k] / denom
			diff := nx - x[k]
			move += diff * diff
			x[k] = nx
		}
		dens = denom
		if capture {
			for a, ad := range s.anchorDens {
				anchor := s.anchors[a*d : (a+1)*d]
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

// mergeModes greedily merges converged points within MergeRadius,
// keeping the densest representative. Candidates are visited in
// descending density (ties broken by start order), so the merge is
// deterministic.
func (s *Searcher) mergeModes(m int) []Mode {
	d := s.d
	order := s.ord[:0]
	for i := 0; i < m; i++ {
		if s.resOK[i] {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := s.dens[order[a]], s.dens[order[b]]
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})

	var modes []Mode
	r2 := s.cfg.MergeRadius * s.cfg.MergeRadius
	for _, i := range order {
		pt := s.resBuf[i*d : (i+1)*d]
		merged := false
		for mi := range modes {
			var dist2 float64
			for k := 0; k < d; k++ {
				diff := modes[mi].Point[k] - pt[k]
				dist2 += diff * diff
			}
			if dist2 <= r2 {
				modes[mi].Starts++
				merged = true
				break
			}
		}
		if !merged {
			cp := make([]float64, d)
			copy(cp, pt)
			modes = append(modes, Mode{Point: cp, Density: s.dens[i], Starts: 1})
		}
	}
	return modes
}

// AssignMass distributes the points' weights over the modes: each point
// is credited to its nearest mode when their scaled-space distance is
// within cutoff bandwidths (≤ 0 selects CutoffSigmas), otherwise it
// stays unassigned. The return value has one total per mode (same
// order) followed by the unassigned remainder at index len(modes).
//
// Each point is scored only against the modes a massIndex over the
// modes' scaled (x, y) names as candidates: every mode within the
// cutoff is among them, in ascending mode index, so the nearest mode,
// its tie-break (the lowest index wins) and every per-mode sum come
// out bit-identical to scoring every point against every mode.
func (s *Searcher) AssignMass(modes []Mode, points, weights []float64, cutoff float64) ([]float64, error) {
	d := s.d
	if len(points)%d != 0 {
		return nil, ErrDimensionMismatch
	}
	n := len(points) / d
	if len(weights) != n {
		return nil, ErrDimensionMismatch
	}
	if cutoff <= 0 {
		cutoff = s.cfg.CutoffSigmas
	}
	out := make([]float64, len(modes)+1)
	c2 := cutoff * cutoff
	if cap(s.invBW) < d {
		s.invBW = make([]float64, d)
	}
	invBW := s.invBW[:d]
	for k := 0; k < d; k++ {
		invBW[k] = 1 / s.cfg.Bandwidth[k]
	}
	s.mass.build(modes, invBW[0], invBW[1], cutoff)
	for j := 0; j < n; j++ {
		best := -1
		bestD2 := math.Inf(1)
		base := j * d
		for _, mi := range s.mass.candidates(points[base]*invBW[0], points[base+1]*invBW[1]) {
			mp := modes[mi].Point
			var d2 float64
			for k := 0; k < d; k++ {
				diff := (points[base+k] - mp[k]) * invBW[k]
				d2 += diff * diff
			}
			if d2 < bestD2 {
				bestD2 = d2
				best = int(mi)
			}
		}
		if best >= 0 && bestD2 <= c2 {
			out[best] += weights[j]
		} else {
			out[len(modes)] += weights[j]
		}
	}
	return out, nil
}

// massIndex buckets the modes by their bandwidth-scaled (x, y) into
// square cells of side w ≥ cutoff, so a point's candidate modes are
// those in its own cell and the 8 around it: a mode within the cutoff
// of the point is less than one cell away on each axis. The cell grid
// covers the modes' bounding box plus a one-cell border, so a point
// just outside the box still finds the modes beside it and a point
// farther out has none. Each cell stores its whole neighbourhood's
// modes as one list in ascending mode index — about 9 entries per
// mode — so a lookup is two divisions and a slice. The storage is
// Searcher scratch, reused across calls.
type massIndex struct {
	all      bool    // every mode is every point's candidate (see build)
	lox, loy float64 // the modes' bounding-box corner
	w        float64 // cell side
	nx, ny   int     // cells spanning the box; the grid is (nx+2)×(ny+2)
	start    []int32 // cell c's candidates are cand[start[c]:start[c+1]]
	cand     []int32
	cell     []int32 // mode → grid cell, -1 for a mode with non-finite (x, y)
}

// maxMassCells bounds the grid at 16 cells per mode (plus a floor for
// few modes); cells double in size until it holds.
func maxMassCells(m int) float64 { return 16*float64(m) + 64 }

// build indexes modes for AssignMass at the given cutoff, with sx, sy
// the reciprocal x and y bandwidths.
//
// The cell side carries a relative margin of 2^-20 of the cutoff and
// 2^-30 of the largest scaled mode coordinate. Rounding makes the
// difference of two scaled coordinates and the scaled difference that
// the distance test sees disagree by a few ulps of those magnitudes;
// the margin keeps a mode at the cutoff within one cell of the point.
//
// A non-finite cutoff or a bounding box too wide to represent selects
// the exhaustive form: one list of every mode, for every point. Modes
// with non-finite (x, y) are left out of the grid: their distance to
// any point is NaN or +Inf, which never wins the strict comparison.
func (ix *massIndex) build(modes []Mode, sx, sy, cutoff float64) {
	m := len(modes)
	ix.all = false
	if cap(ix.cell) < m {
		ix.cell = make([]int32, m)
	}
	ix.cell = ix.cell[:m]
	lox, loy := math.Inf(1), math.Inf(1)
	hix, hiy := math.Inf(-1), math.Inf(-1)
	var maxAbs float64
	finite := 0
	for _, md := range modes {
		x, y := md.Point[0]*sx, md.Point[1]*sy
		if !isFinite(x) || !isFinite(y) {
			continue
		}
		finite++
		lox, hix = math.Min(lox, x), math.Max(hix, x)
		loy, hiy = math.Min(loy, y), math.Max(hiy, y)
		maxAbs = math.Max(maxAbs, math.Max(math.Abs(x), math.Abs(y)))
	}
	w := cutoff*(1+0x1p-20) + maxAbs*0x1p-30
	spanX, spanY := math.Floor((hix-lox)/w), math.Floor((hiy-loy)/w)
	if finite == 0 || !isFinite(w) || !isFinite(spanX) || !isFinite(spanY) {
		ix.all = true
		ix.cand = ix.cand[:0]
		for mi := range modes {
			ix.cand = append(ix.cand, int32(mi))
		}
		return
	}
	for (spanX+3)*(spanY+3) > maxMassCells(m) {
		w *= 2
		spanX, spanY = math.Floor((hix-lox)/w), math.Floor((hiy-loy)/w)
	}
	ix.lox, ix.loy, ix.w = lox, loy, w
	ix.nx, ix.ny = int(spanX)+1, int(spanY)+1
	stride := ix.nx + 2
	cells := stride * (ix.ny + 2)
	if cap(ix.start) < cells+1 {
		ix.start = make([]int32, cells+1)
	}
	ix.start = ix.start[:cells+1]
	for c := range ix.start {
		ix.start[c] = 0
	}
	// Count each mode into its cell's and its 8 neighbours' lists and
	// prefix-sum the counts, leaving start[c] at the end of cell c's
	// list; filling back to front in descending mode index then moves
	// each start[c] to its list's beginning, with the list ascending.
	// start[cells] stays at the total, the last list's end.
	for mi, md := range modes {
		x, y := md.Point[0]*sx, md.Point[1]*sy
		if !isFinite(x) || !isFinite(y) {
			ix.cell[mi] = -1
			continue
		}
		cx := clampCell(math.Floor((x-lox)/w), ix.nx) + 1
		cy := clampCell(math.Floor((y-loy)/w), ix.ny) + 1
		c := cy*stride + cx
		ix.cell[mi] = int32(c)
		for _, q := range neighbourhood(c, stride) {
			ix.start[q]++
		}
	}
	for c := 1; c <= cells; c++ {
		ix.start[c] += ix.start[c-1]
	}
	total := int(ix.start[cells])
	if cap(ix.cand) < total {
		ix.cand = make([]int32, total)
	}
	ix.cand = ix.cand[:total]
	for mi := m - 1; mi >= 0; mi-- {
		c := int(ix.cell[mi])
		if c < 0 {
			continue
		}
		for _, q := range neighbourhood(c, stride) {
			ix.start[q]--
			ix.cand[ix.start[q]] = int32(mi)
		}
	}
}

// neighbourhood lists grid cell c and its 8 neighbours in a grid whose
// rows are stride cells long.
func neighbourhood(c, stride int) [9]int {
	return [9]int{
		c - stride - 1, c - stride, c - stride + 1,
		c - 1, c, c + 1,
		c + stride - 1, c + stride, c + stride + 1,
	}
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// clampCell converts a floored cell coordinate to an index in [0, n).
func clampCell(f float64, n int) int {
	return int(math.Max(0, math.Min(f, float64(n-1))))
}

// candidates returns the modes a point at scaled (x, y) must be
// scored against, in ascending mode index. A point more than one cell
// outside the modes' bounding box — or with a non-finite coordinate —
// has none.
func (ix *massIndex) candidates(x, y float64) []int32 {
	if ix.all {
		return ix.cand
	}
	fx := (x - ix.lox) / ix.w
	fy := (y - ix.loy) / ix.w
	if !(fx >= -1 && fx < float64(ix.nx+1) && fy >= -1 && fy < float64(ix.ny+1)) {
		return nil
	}
	c := (int(math.Floor(fy))+1)*(ix.nx+2) + int(math.Floor(fx)) + 1
	return ix.cand[ix.start[c]:ix.start[c+1]]
}

// FindModes is the one-shot convenience form: it builds a throwaway
// Searcher and runs a single search. Hot paths should hold a Searcher
// and reuse it.
func FindModes(cfg Config, points []float64, weights []float64, starts []float64) ([]Mode, error) {
	s, err := NewSearcher(cfg)
	if err != nil {
		return nil, err
	}
	return s.FindModes(points, weights, starts)
}

// AssignMass is the one-shot convenience form of Searcher.AssignMass.
func AssignMass(cfg Config, modes []Mode, points []float64, weights []float64, cutoff float64) ([]float64, error) {
	s, err := NewSearcher(cfg)
	if err != nil {
		return nil, err
	}
	return s.AssignMass(modes, points, weights, cutoff)
}

// expTable tabulates exp(−x/2) on [0, expTableMax] at expTableStep
// spacing for linear interpolation. For f(x) = e^{−x/2} the
// interpolation error is bounded by step²/8 times the maximum of the
// second derivative's magnitude, which is step²/32 relative (the
// second derivative is f/4 everywhere), ≈ 4.8·10⁻⁷ at 1/256 — three
// orders of magnitude below the kernel's CutoffSigmas truncation.
const (
	expTableMax     = 32.0
	expTableStep    = 1.0 / 256
	expTableInvStep = 256.0
	expTableLen     = int(expTableMax*expTableInvStep) + 2
)

var expTable = buildExpTable()

func buildExpTable() []float64 {
	t := make([]float64, expTableLen)
	for i := range t {
		t[i] = math.Exp(-0.5 * float64(i) * expTableStep)
	}
	return t
}

// expNegHalf returns exp(−d2/2), by linear interpolation of expTable
// for in-range d2 and by math.Exp when exact is set or d2 falls outside
// the table. d2 must be ≥ 0 (it is a squared distance).
func expNegHalf(d2 float64, exact bool) float64 {
	if exact || d2 >= expTableMax {
		return math.Exp(-0.5 * d2)
	}
	t := d2 * expTableInvStep
	i := int(t)
	f := t - float64(i)
	return expTable[i] + f*(expTable[i+1]-expTable[i])
}
