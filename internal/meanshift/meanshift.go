// Package meanshift implements the weighted kernel-density mode seeking
// of Comaniciu & Meer that the paper uses to turn the particle
// population into source estimates (Section V-D, Eq. 6–7).
//
// Every particle hypothesizes one source, so every point is a triple
// (x, y, strength) whatever the number of sources, and the kernel is
// the diagonal Gaussian H = diag(h_x², h_y², h_s²). The search runs in
// "scaled space" where every coordinate is divided by its bandwidth,
// making the kernel isotropic. Starts are iterated with
//
//	x_{i+1} = Σ_j p_j w_j K(x_i − p_j) / Σ_j w_j K(x_i − p_j)
//
// until convergence; converged points within mergeRadius (one scaled
// unit) of each other are merged into one mode. Points beyond
// cutoffSigmas in scaled spatial (x, y) distance are ignored — the
// truncation discards at most exp(−cutoffSigmas²/2) (≈ 3·10⁻⁴) of any
// point's relative spatial contribution.
//
// The climbs run in two phases. Phase 1 climbs every eighth start to
// convergence. Phase 2 climbs the rest, and after every iteration
// checks the climbing point against the phase-1 results in phase-1
// order: once it is within a quarter of mergeRadius of one, the climb
// stops there and takes that result's point and density, since the
// merge would have joined the two anyway. Most climbs end a few
// iterations early this way. Phase 2 starts only after phase 1 has
// finished and reads only phase-1 results, so the modes do not depend
// on the worker count or on scheduling.
//
// The paper reports that mean-shift dominates its runtime and
// parallelizes well. A Searcher distributes each phase's starts across
// Workers goroutines. It holds only its configuration: each search
// allocates its working storage (one scaled copy of the points sorted
// by prune cell, which every climb scans in place, and the per-start
// staging) and drops it on return, so nothing outlives a search and one
// Searcher serves concurrent callers; see DESIGN.md §11 for the
// performance model. The points come in as a columnar view (Points) of
// the caller's own arrays, which the Searcher reads in place.
package meanshift

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"radloc/internal/geometry"
	"radloc/internal/spatial"
)

// The climb's fixed settings, in scaled space.
const (
	// climbMaxIter bounds the iterations per start.
	climbMaxIter = 100
	// climbTol is the movement below which a start has converged.
	climbTol = 1e-3
	// mergeRadius is the distance within which two converged points
	// are one mode.
	mergeRadius = 1.0
	// cutoffSigmas is the radius beyond which kernel contributions are
	// ignored, and AssignMass's default cutoff.
	cutoffSigmas = 4.0
)

// Config controls the mode search. A zero Workers selects the
// documented default.
type Config struct {
	// Bandwidth is the kernel bandwidth of each coordinate — x, y and
	// strength — each > 0.
	Bandwidth [3]float64
	// Workers is the number of goroutines iterating starts (default
	// runtime.GOMAXPROCS(0)). The worker count never changes the
	// result: climbs within a phase are independent, phase 2 reads only
	// phase-1 results, and results merge in a fixed order.
	Workers int
	// ExactKernel forces math.Exp for the Gaussian kernel instead of
	// the default table-interpolated exponential. The table's relative
	// error (≈ 5·10⁻⁷) sits three orders of magnitude below the
	// cutoff's truncation error, so this exists for verification, not
	// accuracy.
	ExactKernel bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

func (c Config) validate() error {
	for k, h := range c.Bandwidth {
		if h <= 0 || math.IsNaN(h) || math.IsInf(h, 0) {
			return fmt.Errorf("meanshift: bandwidth[%d] = %v", k, h)
		}
	}
	return nil
}

// Mode is a local maximum of the weighted kernel density.
type Mode struct {
	// Point is the mode location (x, y, strength) in original
	// (unscaled) coordinates.
	Point [3]float64
	// Density is the unnormalized kernel density Σ w_j K at the mode.
	Density float64
	// Starts is the number of start points that converged to this mode.
	Starts int
}

// Points is a columnar view of n weighted points in (x, y, strength)
// space, their weights in class form: point j lies at (X[j], Y[j],
// S[j]) and weighs Weights[Class[j]]. A caller whose points share a few
// distinct weights (the particle filter's) keeps one array per
// coordinate, a class index per point and a table of the weights, and
// passes them as they are; per-point weights are the case Class[j] = j.
// Every class index must index Weights; table entries no point refers
// to are never read. Weights are non-negative; a point with weight ≤ 0
// takes no part in a search at all — it pulls no climb, does not span
// the prune grid's bounding box, and AssignMass credits it nowhere. The
// Searcher reads the arrays and never writes them.
type Points struct {
	X, Y, S []float64 // n coordinates each
	Class   []uint32  // n weight-class indexes into Weights
	Weights []float64 // the class weights
}

// check reports whether pts holds as many coordinates in each array as
// it has class indexes.
func (pts Points) check() error {
	if n := len(pts.Class); len(pts.X) != n || len(pts.Y) != n || len(pts.S) != n {
		return fmt.Errorf("%w: %d x, %d y and %d strength values for %d points",
			ErrDimensionMismatch, len(pts.X), len(pts.Y), len(pts.S), n)
	}
	return nil
}

// ErrDimensionMismatch is returned when the coordinate arrays and the
// class indexes differ in length, or the starts are not whole triples.
var ErrDimensionMismatch = errors.New("meanshift: dimension mismatch")

// phase1Stride spaces the phase-1 starts: starts 0, phase1Stride,
// 2·phase1Stride, … (in the caller's order) climb to convergence, and
// every other start climbs in phase 2 against their results.
const phase1Stride = 8

// captureFrac sets the phase-2 capture radius as a fraction of
// mergeRadius. A phase-2 climb that comes within captureFrac·mergeRadius
// of a phase-1 result would be merged with it anyway; the quarter
// leaves the rest of mergeRadius as margin for the distance the
// captured climb would still have moved on its own.
const captureFrac = 0.25

// Searcher runs mode searches for one validated configuration, which is
// all it holds: FindModes and AssignMass allocate their working storage
// per call and drop it on return. A Searcher is safe for concurrent use;
// one FindModes call also parallelizes internally across Config.Workers
// goroutines, which share its point copy read-only.
type Searcher struct {
	cfg Config
}

// NewSearcher validates and defaults cfg and returns a Searcher ready
// for FindModes/AssignMass calls.
func NewSearcher(cfg Config) (*Searcher, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Searcher{cfg: cfg.withDefaults()}, nil
}

// FindModes locates the density modes of pts reachable from the given
// starts, a flat array of m (x, y, strength) triples (start i at
// starts[3i:3i+3]). The returned modes are sorted by descending
// density; Mode.Starts counts the starts whose climbs merged into each
// mode. Without a positive-weight point there is no mode.
func (s *Searcher) FindModes(pts Points, starts []float64) ([]Mode, error) {
	if err := pts.check(); err != nil {
		return nil, err
	}
	if len(starts)%3 != 0 {
		return nil, fmt.Errorf("%w: %d start coordinates are not whole triples", ErrDimensionMismatch, len(starts))
	}
	if len(starts) == 0 {
		return nil, nil
	}
	sr := &search{cfg: s.cfg}
	if sr.prepare(pts) == 0 {
		return nil, nil
	}
	m := sr.stageStarts(starts)
	sr.runClimbs(m)
	modes := sr.mergeModes(m)
	for i := range modes {
		for k := range 3 {
			modes[i].Point[k] *= s.cfg.Bandwidth[k]
		}
	}
	return modes, nil
}

// search is the working storage of one FindModes call.
type search struct {
	cfg Config

	// The points with positive weight, bandwidth-scaled and sorted by
	// prune cell: square cells of side cutoffSigmas over the bounding
	// box of their scaled (x, y), row-major, and ascending point index
	// within a cell. Cell c holds entries cellStart[c] up to
	// cellStart[c+1]. Each coordinate and the weights are one array
	// each, so the kernel's cutoff test streams px and py alone; all
	// four are sections of one slab.
	cells          spatial.Cells
	cellStart      []int32
	px, py, ps, pw []float64
	// reach is the half-width of the square a climb scans around its
	// point: cutoffSigmas plus a rounding margin (see prepare). cut2 is
	// cutoffSigmas², the kernel's cutoff test: a value, not a constant,
	// because the climb loop keeps a value in a register where it would
	// reload a constant from memory for every point (4–12% of a
	// BenchmarkFindModes search on a 2-vCPU x86-64 host).
	reach, cut2 float64

	// The per-start staging; res, dens, anchors and anchorDens are
	// sections of one slab.
	res   []float64 // scaled starts, m triples, climbed in place into results
	dens  []float64 // each result's density
	resOK []bool    // whether each climb saw any support
	ord   []int     // start indices: a phase's climb list, then the merge order

	anchors    []float64 // phase-1 results with support, in phase-1 order, as triples
	anchorDens []float64 // their densities
}

// triple returns the i-th (x, y, strength) triple of the flat array v.
func triple(v []float64, i int) *[3]float64 { return (*[3]float64)(v[3*i:]) }

// prepare lays out the cell-ordered copy of the points with positive
// weight and returns their count: a pass for the bounding box of their
// scaled (x, y), a counting pass, and a placing pass that fills each
// cell back to front in descending point index, leaving every cell's
// entries in ascending index. Points with weight ≤ 0 contribute nothing
// to any climb; they are left out of the copy and of the bounding box,
// which fixes the cell geometry.
//
// reach pads the cutoff by 2^-20 of it and 2^-30 of the largest scaled
// coordinate: a point that passes the kernel's cutoff test then lies
// in a cell the scan visits, whatever the rounding of the cell
// arithmetic (as in newMassIndex).
func (s *search) prepare(pts Points) int {
	bx, by, bs := s.cfg.Bandwidth[0], s.cfg.Bandwidth[1], s.cfg.Bandwidth[2]
	xs, ys, ss, cls, ws := pts.X, pts.Y, pts.S, pts.Class, pts.Weights
	lo := geometry.V(math.Inf(1), math.Inf(1))
	hi := geometry.V(math.Inf(-1), math.Inf(-1))
	live := 0
	for j, c := range cls {
		if ws[c] <= 0 {
			continue
		}
		live++
		x, y := xs[j]/bx, ys[j]/by
		lo.X = math.Min(lo.X, x)
		lo.Y = math.Min(lo.Y, y)
		hi.X = math.Max(hi.X, x)
		hi.Y = math.Max(hi.Y, y)
	}
	if live == 0 {
		return 0
	}
	s.cells = spatial.NewCells(geometry.NewRect(lo, hi), cutoffSigmas)
	maxAbs := math.Max(math.Max(math.Abs(lo.X), math.Abs(lo.Y)), math.Max(math.Abs(hi.X), math.Abs(hi.Y)))
	s.reach = cutoffSigmas*(1+0x1p-20) + maxAbs*0x1p-30
	s.cut2 = cutoffSigmas * cutoffSigmas

	// Count each cell's points and prefix-sum the counts, leaving
	// cellStart[c] at the end of cell c and cellStart[cells] at the
	// total; placing moves each cellStart[c] back to its cell's start.
	nx, ny := s.cells.Dims()
	cells := nx * ny
	s.cellStart = make([]int32, cells+1)
	for j, c := range cls {
		if ws[c] <= 0 {
			continue
		}
		s.cellStart[s.cells.Index(geometry.V(xs[j]/bx, ys[j]/by))]++
	}
	for c := 1; c <= cells; c++ {
		s.cellStart[c] += s.cellStart[c-1]
	}
	slab := make([]float64, 4*live)
	s.px, slab = carve(slab, live)
	s.py, slab = carve(slab, live)
	s.ps, s.pw = carve(slab, live)
	for j := len(cls) - 1; j >= 0; j-- {
		w := ws[cls[j]]
		if w <= 0 {
			continue
		}
		x, y := xs[j]/bx, ys[j]/by
		c := s.cells.Index(geometry.V(x, y))
		s.cellStart[c]--
		e := int(s.cellStart[c])
		s.px[e], s.py[e], s.ps[e], s.pw[e] = x, y, ss[j]/bs, w
	}
	return live
}

// carve splits slab into its first n values, capped so that an append
// cannot run into the rest, and the rest.
func carve(slab []float64, n int) (head, rest []float64) {
	return slab[:n:n], slab[n:]
}

// stageStarts scales the starts into the result slots they climb in,
// lays out the rest of the per-start staging, and returns the start
// count.
func (s *search) stageStarts(starts []float64) int {
	m := len(starts) / 3
	p := (m + phase1Stride - 1) / phase1Stride // phase-1 starts
	slab := make([]float64, 3*m+m+3*p+p)
	s.res, slab = carve(slab, 3*m)
	s.dens, slab = carve(slab, m)
	s.anchors, s.anchorDens = carve(slab, 3*p)
	s.anchors, s.anchorDens = s.anchors[:0], s.anchorDens[:0]
	s.resOK = make([]bool, m)
	s.ord = make([]int, 0, m)
	for i, v := range starts {
		s.res[i] = v / s.cfg.Bandwidth[i%3]
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
func (s *search) runClimbs(m int) {
	for i := 0; i < m; i += phase1Stride {
		s.ord = append(s.ord, i)
	}
	s.climbAll(s.ord, false)

	for _, i := range s.ord {
		if s.resOK[i] {
			s.anchors = append(s.anchors, triple(s.res, i)[:]...)
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
func (s *search) climbAll(idx []int, capture bool) {
	workers := s.cfg.Workers
	if workers > len(idx) {
		workers = len(idx)
	}
	if workers <= 1 {
		for _, i := range idx {
			s.dens[i], s.resOK[i] = s.climb(triple(s.res, i), capture)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idx) {
					return
				}
				i := idx[k]
				s.dens[i], s.resOK[i] = s.climb(triple(s.res, i), capture)
			}
		}()
	}
	wg.Wait()
}

// climb runs the mean-shift iteration in scaled space, mutating x in
// place. It reports the final kernel density and whether the start
// ever saw any support. With capture set (phase 2), the climb ends
// after the first iteration that leaves x within the capture radius of
// an anchor and returns that anchor's point and density.
//
// Every iteration scans the cells that the square of half-width reach
// around x overlaps: row by row, each row's cells one contiguous run of
// the cell-ordered copy. The kernel's own cutoff test picks the
// contributing points, and they are summed in (cell row, cell column,
// point index) order.
func (s *search) climb(x *[3]float64, capture bool) (float64, bool) {
	r2cut := s.cut2
	exact := s.cfg.ExactKernel
	tol2 := climbTol * climbTol
	capR := captureFrac * mergeRadius
	cap2 := capR * capR
	stride, _ := s.cells.Dims()
	var dens float64
	for iter := 0; iter < climbMaxIter; iter++ {
		cx0, cy0 := s.cells.Coords(geometry.V(x[0]-s.reach, x[1]-s.reach))
		cx1, cy1 := s.cells.Coords(geometry.V(x[0]+s.reach, x[1]+s.reach))
		// Per-coordinate streams and scalar accumulators: the
		// accumulators are the numerator.
		x0, x1, x2 := x[0], x[1], x[2]
		var denom, n0, n1, n2 float64
		for cy := cy0; cy <= cy1; cy++ {
			lo, hi := s.cellStart[cy*stride+cx0], s.cellStart[cy*stride+cx1+1]
			px := s.px[lo:hi]
			py := s.py[lo:hi]
			ps := s.ps[lo:hi]
			pw := s.pw[lo:hi]
			for i := range px {
				dx := x0 - px[i]
				dy := x1 - py[i]
				if dx*dx+dy*dy > r2cut {
					continue
				}
				dz := x2 - ps[i]
				d2 := dx*dx + dy*dy + dz*dz
				// The table-interpolated exponential, spelled out here:
				// as a call (with its math.Exp fallback) it would be
				// past the inliner's budget, and the kernel is the
				// single hottest expression in the filter.
				var e float64
				if d2 < expTableMax && !exact {
					t := d2 * expTableInvStep
					ti := int(t)
					f := t - float64(ti)
					e = expTable[ti] + f*(expTable[ti+1]-expTable[ti])
				} else {
					e = math.Exp(-0.5 * d2)
				}
				kv := pw[i] * e
				denom += kv
				n0 += kv * px[i]
				n1 += kv * py[i]
				n2 += kv * ps[i]
			}
		}
		if denom <= 0 {
			return 0, false
		}
		var move float64
		for k, n := range [3]float64{n0, n1, n2} {
			nx := n / denom
			diff := nx - x[k]
			move += diff * diff
			x[k] = nx
		}
		dens = denom
		if capture {
			for a, ad := range s.anchorDens {
				anchor := triple(s.anchors, a)
				var dist2 float64
				for k := range 3 {
					diff := anchor[k] - x[k]
					dist2 += diff * diff
				}
				if dist2 <= cap2 {
					*x = *anchor
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

// mergeModes greedily merges converged points within mergeRadius,
// keeping the densest representative. Candidates are visited in
// descending density (ties broken by start order), so the merge is
// deterministic.
func (s *search) mergeModes(m int) []Mode {
	order := s.ord[:0]
	for i := 0; i < m; i++ {
		if s.resOK[i] {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if da, db := s.dens[a], s.dens[b]; da != db {
			if da > db {
				return -1
			}
			return 1
		}
		return a - b
	})

	var modes []Mode
	r2 := mergeRadius * mergeRadius
	for _, i := range order {
		pt := triple(s.res, i)
		merged := false
		for mi := range modes {
			var dist2 float64
			for k := range 3 {
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
			modes = append(modes, Mode{Point: *pt, Density: s.dens[i], Starts: 1})
		}
	}
	return modes
}

// AssignMass distributes the points' weights over the modes: each point
// with positive weight is credited to its nearest mode when their
// scaled-space distance is within cutoff bandwidths (≤ 0 selects
// cutoffSigmas), otherwise it stays unassigned. The return value has
// one total per mode (same order) followed by the unassigned remainder
// at index len(modes).
//
// Each point is scored only against the modes a massIndex over the
// modes' scaled (x, y) names as candidates: every mode within the
// cutoff is among them, in ascending mode index, so the nearest mode,
// its tie-break (the lowest index wins) and every per-mode sum come
// out bit-identical to scoring every point against every mode.
func (s *Searcher) AssignMass(modes []Mode, pts Points, cutoff float64) ([]float64, error) {
	if err := pts.check(); err != nil {
		return nil, err
	}
	if cutoff <= 0 {
		cutoff = cutoffSigmas
	}
	out := make([]float64, len(modes)+1)
	c2 := cutoff * cutoff
	var invBW [3]float64
	for k := range 3 {
		invBW[k] = 1 / s.cfg.Bandwidth[k]
	}
	mass := newMassIndex(modes, invBW[0], invBW[1], cutoff)
	coords := [3][]float64{pts.X, pts.Y, pts.S}
	for j, c := range pts.Class {
		w := pts.Weights[c]
		if w <= 0 {
			continue
		}
		best := -1
		bestD2 := math.Inf(1)
		for _, mi := range mass.candidates(coords[0][j]*invBW[0], coords[1][j]*invBW[1]) {
			mp := &modes[mi].Point
			var d2 float64
			for k := range 3 {
				diff := (coords[k][j] - mp[k]) * invBW[k]
				d2 += diff * diff
			}
			if d2 < bestD2 {
				bestD2 = d2
				best = int(mi)
			}
		}
		if best >= 0 && bestD2 <= c2 {
			out[best] += w
		} else {
			out[len(modes)] += w
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
// mode — so a lookup is two divisions and a slice.
type massIndex struct {
	all      bool    // every mode is every point's candidate (see newMassIndex)
	lox, loy float64 // the modes' bounding-box corner
	w        float64 // cell side
	nx, ny   int     // cells spanning the box; the grid is (nx+2)×(ny+2)
	start    []int32 // cell c's candidates are cand[start[c]:start[c+1]]
	cand     []int32
}

// maxMassCells bounds the grid at 16 cells per mode (plus a floor for
// few modes); cells double in size until it holds.
func maxMassCells(m int) float64 { return 16*float64(m) + 64 }

// newMassIndex indexes modes for AssignMass at the given cutoff, with
// sx, sy the reciprocal x and y bandwidths.
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
func newMassIndex(modes []Mode, sx, sy, cutoff float64) *massIndex {
	m := len(modes)
	ix := &massIndex{}
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
		ix.cand = make([]int32, m)
		for mi := range ix.cand {
			ix.cand[mi] = int32(mi)
		}
		return ix
	}
	for (spanX+3)*(spanY+3) > maxMassCells(m) {
		w *= 2
		spanX, spanY = math.Floor((hix-lox)/w), math.Floor((hiy-loy)/w)
	}
	ix.lox, ix.loy, ix.w = lox, loy, w
	ix.nx, ix.ny = int(spanX)+1, int(spanY)+1
	stride := ix.nx + 2
	cells := stride * (ix.ny + 2)
	ix.start = make([]int32, cells+1)
	cell := make([]int32, m) // mode → grid cell, -1 for a mode with non-finite (x, y)
	// Count each mode into its cell's and its 8 neighbours' lists and
	// prefix-sum the counts, leaving start[c] at the end of cell c's
	// list; filling back to front in descending mode index then moves
	// each start[c] to its list's beginning, with the list ascending.
	// start[cells] stays at the total, the last list's end.
	for mi, md := range modes {
		x, y := md.Point[0]*sx, md.Point[1]*sy
		if !isFinite(x) || !isFinite(y) {
			cell[mi] = -1
			continue
		}
		cx := clampCell(math.Floor((x-lox)/w), ix.nx) + 1
		cy := clampCell(math.Floor((y-loy)/w), ix.ny) + 1
		c := cy*stride + cx
		cell[mi] = int32(c)
		for _, q := range neighbourhood(c, stride) {
			ix.start[q]++
		}
	}
	for c := 1; c <= cells; c++ {
		ix.start[c] += ix.start[c-1]
	}
	total := int(ix.start[cells])
	ix.cand = make([]int32, total)
	for mi := m - 1; mi >= 0; mi-- {
		c := int(cell[mi])
		if c < 0 {
			continue
		}
		for _, q := range neighbourhood(c, stride) {
			ix.start[q]--
			ix.cand[ix.start[q]] = int32(mi)
		}
	}
	return ix
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

// expTable tabulates exp(−x/2) on [0, expTableMax] at expTableStep
// spacing for linear interpolation. For f(x) = e^{−x/2} the
// interpolation error is bounded by step²/8 times the maximum of the
// second derivative's magnitude, which is step²/32 relative (the
// second derivative is f/4 everywhere), ≈ 4.8·10⁻⁷ at 1/256 — three
// orders of magnitude below the kernel's cutoffSigmas truncation.
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
