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
// until convergence; converged points within mergeRadius (one scaled
// unit) of each other are merged into one mode. Points beyond CutoffSigmas in scaled
// spatial (first-two-dimension) distance are ignored — the truncation
// discards at most exp(−CutoffSigmas²/2) (≈ 3·10⁻⁴ at the default 4)
// of any point's relative spatial contribution.
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
// Workers goroutines and owns reusable scratch (one scaled copy of the
// points sorted by prune cell, which every climb scans in place), so
// repeated searches over populations of similar size allocate only the
// returned modes; see DESIGN.md §11 for the performance model. The
// points come in as a columnar view (Points) of the caller's own
// arrays, which the Searcher reads in place.
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
)

// Config controls the mode search. Zero values of CutoffSigmas and
// Workers select the documented defaults.
type Config struct {
	// Bandwidth is the per-dimension kernel bandwidth h_k (> 0). Its
	// length fixes the dimensionality d ≥ 2; the first two dimensions
	// must be the spatial ones (they drive neighbour pruning).
	Bandwidth []float64
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

// Points is a columnar view of n weighted points in R^d: Coords[k][j]
// is coordinate k of point j and Weights[j] its weight, so a caller
// that keeps one array per coordinate passes its arrays as they are.
// Weights are non-negative; a point with weight ≤ 0 takes no part in a
// search at all — it pulls no climb, does not span the prune grid's
// bounding box, and AssignMass credits it nowhere. The Searcher reads
// the arrays and never writes them.
type Points struct {
	Coords  [][]float64 // d arrays of n coordinates; the first two are the spatial ones
	Weights []float64   // n point weights
}

// check reports whether pts holds d coordinate arrays as long as its
// weights.
func (pts Points) check(d int) error {
	if len(pts.Coords) != d {
		return fmt.Errorf("%w: %d coordinate arrays, dim %d", ErrDimensionMismatch, len(pts.Coords), d)
	}
	for k, c := range pts.Coords {
		if len(c) != len(pts.Weights) {
			return fmt.Errorf("%w: coordinate %d has %d values for %d weights", ErrDimensionMismatch, k, len(c), len(pts.Weights))
		}
	}
	return nil
}

// ErrDimensionMismatch is returned when points, weights, or starts do
// not agree with the configured dimensionality.
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

// Searcher runs repeated mode searches with reusable scratch: the
// cell-ordered point copy, the start/result staging buffers and the
// per-worker numerators all persist across calls. A Searcher is not
// safe for concurrent use; one FindModes call parallelizes internally
// across Config.Workers goroutines, which share the point copy
// read-only.
type Searcher struct {
	cfg Config
	d   int

	// The points with positive weight, bandwidth-scaled and sorted by
	// prune cell: square cells of side CutoffSigmas over the bounding
	// box of their scaled (x, y), row-major, and ascending point index
	// within a cell. Cell c holds entries cellStart[c] up to
	// cellStart[c+1]. The spatial coordinates and the weights are one
	// array each, so the kernel's cutoff test streams px and py alone;
	// coordinates 2…d−1 are interleaved in rest, d−2 per entry.
	cells     spatial.Cells
	cellStart []int32
	px, py    []float64
	pw        []float64
	rest      []float64
	// reach is the half-width of the square a climb scans around its
	// point: CutoffSigmas plus a rounding margin (see prepare).
	reach float64

	ord []int // start indices: a phase's climb list, then the merge order

	resBuf []float64 // scaled starts, m×d, climbed in place into results
	resOK  []bool
	dens   []float64
	invBW  []float64 // reciprocal bandwidths for AssignMass
	mass   massIndex // AssignMass's candidate index over the modes

	anchors    []float64 // phase-1 results with support, in phase-1 order, k×d
	anchorDens []float64 // their densities

	nums []float64 // one d-long numerator per worker slot
}

// NewSearcher validates and defaults cfg and returns a Searcher ready
// for repeated FindModes/AssignMass calls.
func NewSearcher(cfg Config) (*Searcher, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Searcher{cfg: cfg, d: len(cfg.Bandwidth)}, nil
}

// FindModes locates the density modes of pts reachable from the given
// starts, a flat array of m·d start coordinates (start i at
// starts[i*d:(i+1)*d]). The returned modes are sorted by descending
// density; Mode.Starts counts the starts whose climbs merged into each
// mode. Without a positive-weight point there is no mode.
func (s *Searcher) FindModes(pts Points, starts []float64) ([]Mode, error) {
	d := s.d
	if err := pts.check(d); err != nil {
		return nil, err
	}
	if len(starts)%d != 0 {
		return nil, fmt.Errorf("%w: %d start coords, dim %d", ErrDimensionMismatch, len(starts), d)
	}
	if len(starts) == 0 || s.prepare(pts) == 0 {
		return nil, nil
	}
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
// arithmetic (as in massIndex.build).
func (s *Searcher) prepare(pts Points) int {
	d := s.d
	bx, by := s.cfg.Bandwidth[0], s.cfg.Bandwidth[1]
	xs, ys, ws := pts.Coords[0], pts.Coords[1], pts.Weights
	lo := geometry.V(math.Inf(1), math.Inf(1))
	hi := geometry.V(math.Inf(-1), math.Inf(-1))
	live := 0
	for j, w := range ws {
		if w <= 0 {
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
	cut := s.cfg.CutoffSigmas
	s.cells = spatial.NewCells(geometry.NewRect(lo, hi), cut)
	maxAbs := math.Max(math.Max(math.Abs(lo.X), math.Abs(lo.Y)), math.Max(math.Abs(hi.X), math.Abs(hi.Y)))
	s.reach = cut*(1+0x1p-20) + maxAbs*0x1p-30

	// Count each cell's points and prefix-sum the counts, leaving
	// cellStart[c] at the end of cell c and cellStart[cells] at the
	// total; placing moves each cellStart[c] back to its cell's start.
	nx, ny := s.cells.Dims()
	cells := nx * ny
	s.cellStart = resize(s.cellStart, cells+1)
	clear(s.cellStart)
	for j, w := range ws {
		if w <= 0 {
			continue
		}
		s.cellStart[s.cells.Index(geometry.V(xs[j]/bx, ys[j]/by))]++
	}
	for c := 1; c <= cells; c++ {
		s.cellStart[c] += s.cellStart[c-1]
	}
	s.px = resize(s.px, live)
	s.py = resize(s.py, live)
	s.pw = resize(s.pw, live)
	s.rest = resize(s.rest, live*(d-2))
	for j := len(ws) - 1; j >= 0; j-- {
		if ws[j] <= 0 {
			continue
		}
		x, y := xs[j]/bx, ys[j]/by
		c := s.cells.Index(geometry.V(x, y))
		s.cellStart[c]--
		e := int(s.cellStart[c])
		s.px[e], s.py[e], s.pw[e] = x, y, ws[j]
		for k := 2; k < d; k++ {
			s.rest[e*(d-2)+k-2] = pts.Coords[k][j] / s.cfg.Bandwidth[k]
		}
	}
	return live
}

// resize returns buf with length n, reallocating only when its
// capacity is short. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// stageStarts scales the starts into the result slots they climb in
// and returns their count.
func (s *Searcher) stageStarts(starts []float64) int {
	d := s.d
	m := len(starts) / d
	s.resBuf = resize(s.resBuf, len(starts))
	s.resOK = resize(s.resOK, m)
	s.dens = resize(s.dens, m)
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
	s.nums = resize(s.nums, max(workers, 1)*d)
	if workers <= 1 {
		for _, i := range idx {
			s.dens[i], s.resOK[i] = s.climb(s.resBuf[i*d:(i+1)*d], s.nums, capture)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		num := s.nums[w*d : (w+1)*d]
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idx) {
					return
				}
				i := idx[k]
				s.dens[i], s.resOK[i] = s.climb(s.resBuf[i*d:(i+1)*d], num, capture)
			}
		}()
	}
	wg.Wait()
}

// climb runs the mean-shift iteration in scaled space, mutating x in
// place, with num as the d-long numerator scratch. It reports the final
// kernel density and whether the start ever saw any support. With
// capture set (phase 2), the climb ends after the first iteration that
// leaves x within the capture radius of an anchor and returns that
// anchor's point and density.
//
// Every iteration scans the cells that the square of half-width reach
// around x overlaps: row by row, each row's cells one contiguous run of
// the cell-ordered copy. The kernel's own cutoff test picks the
// contributing points, and they are summed in (cell row, cell column,
// point index) order.
func (s *Searcher) climb(x, num []float64, capture bool) (float64, bool) {
	cfg := s.cfg
	d := s.d
	r2cut := cfg.CutoffSigmas * cfg.CutoffSigmas
	exact := cfg.ExactKernel
	tol2 := climbTol * climbTol
	capR := captureFrac * mergeRadius
	cap2 := capR * capR
	stride, _ := s.cells.Dims()
	var dens float64
	for iter := 0; iter < climbMaxIter; iter++ {
		cx0, cy0 := s.cells.Coords(geometry.V(x[0]-s.reach, x[1]-s.reach))
		cx1, cy1 := s.cells.Coords(geometry.V(x[0]+s.reach, x[1]+s.reach))
		var denom float64
		if d == 3 {
			// The localizer's (x, y, strength) search space — worth its
			// own loop: per-coordinate streams and scalar accumulators.
			x0, x1, x2 := x[0], x[1], x[2]
			var n0, n1, n2 float64
			for cy := cy0; cy <= cy1; cy++ {
				lo, hi := s.cellStart[cy*stride+cx0], s.cellStart[cy*stride+cx1+1]
				px := s.px[lo:hi]
				py := s.py[lo:hi]
				pz := s.rest[lo:hi]
				pw := s.pw[lo:hi]
				for i := range px {
					dx := x0 - px[i]
					dy := x1 - py[i]
					if dx*dx+dy*dy > r2cut {
						continue
					}
					dz := x2 - pz[i]
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
					kv := pw[i] * e
					denom += kv
					n0 += kv * px[i]
					n1 += kv * py[i]
					n2 += kv * pz[i]
				}
			}
			num[0], num[1], num[2] = n0, n1, n2
		} else {
			clear(num)
			nr := d - 2
			for cy := cy0; cy <= cy1; cy++ {
				lo, hi := int(s.cellStart[cy*stride+cx0]), int(s.cellStart[cy*stride+cx1+1])
				for e := lo; e < hi; e++ {
					dx := x[0] - s.px[e]
					dy := x[1] - s.py[e]
					if dx*dx+dy*dy > r2cut {
						continue
					}
					rest := s.rest[e*nr : (e+1)*nr]
					d2 := dx*dx + dy*dy
					for k, v := range rest {
						diff := x[k+2] - v
						d2 += diff * diff
					}
					kv := s.pw[e] * expNegHalf(d2, exact)
					denom += kv
					num[0] += kv * s.px[e]
					num[1] += kv * s.py[e]
					for k, v := range rest {
						num[k+2] += kv * v
					}
				}
			}
		}
		if denom <= 0 {
			return 0, false
		}
		var move float64
		for k := 0; k < d; k++ {
			nx := num[k] / denom
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

// mergeModes greedily merges converged points within mergeRadius,
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
// with positive weight is credited to its nearest mode when their
// scaled-space distance is within cutoff bandwidths (≤ 0 selects
// CutoffSigmas), otherwise it stays unassigned. The return value has
// one total per mode (same order) followed by the unassigned remainder
// at index len(modes).
//
// Each point is scored only against the modes a massIndex over the
// modes' scaled (x, y) names as candidates: every mode within the
// cutoff is among them, in ascending mode index, so the nearest mode,
// its tie-break (the lowest index wins) and every per-mode sum come
// out bit-identical to scoring every point against every mode.
func (s *Searcher) AssignMass(modes []Mode, pts Points, cutoff float64) ([]float64, error) {
	d := s.d
	if err := pts.check(d); err != nil {
		return nil, err
	}
	if cutoff <= 0 {
		cutoff = s.cfg.CutoffSigmas
	}
	out := make([]float64, len(modes)+1)
	c2 := cutoff * cutoff
	s.invBW = resize(s.invBW, d)
	invBW := s.invBW
	for k := 0; k < d; k++ {
		invBW[k] = 1 / s.cfg.Bandwidth[k]
	}
	s.mass.build(modes, invBW[0], invBW[1], cutoff)
	coords := pts.Coords
	for j, w := range pts.Weights {
		if w <= 0 {
			continue
		}
		best := -1
		bestD2 := math.Inf(1)
		for _, mi := range s.mass.candidates(coords[0][j]*invBW[0], coords[1][j]*invBW[1]) {
			mp := modes[mi].Point
			var d2 float64
			for k := 0; k < d; k++ {
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
	ix.cell = resize(ix.cell, m)
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
	ix.start = resize(ix.start, cells+1)
	clear(ix.start)
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
	ix.cand = resize(ix.cand, total)
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
