package core

import (
	"fmt"
	"math"
	"sort"

	"radloc/internal/geometry"
	"radloc/internal/meanshift"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
	"radloc/internal/spatial"
	"radloc/internal/stat"
)

// Particle is one hypothesis about a single source's parameters.
type Particle struct {
	Pos      geometry.Vec // hypothesized source position
	Strength float64      // hypothesized source strength, µCi
	Weight   float64      // normalized importance weight
}

// Estimate is one recovered source: a mode of the particle density.
type Estimate struct {
	Pos      geometry.Vec // estimated source position
	Strength float64      // µCi
	Mass     float64      // fraction of total particle mass attributed to this mode
	Starts   int          // mean-shift starts that converged here (diagnostic)
}

// String implements fmt.Stringer.
func (e Estimate) String() string {
	return fmt.Sprintf("est %.4g µCi at %v (mass %.3f)", e.Strength, e.Pos, e.Mass)
}

// weightChunkSize is the fixed granularity the weighting stage reduces
// the selected subset in: each chunk's max log-posterior and prior mass
// are summed on their own and then combined in chunk order. The chunks
// fix only that floating-point reduction order, which every checkpoint
// and digest depends on (see DESIGN.md §11); all chunks run on the
// calling goroutine.
const weightChunkSize = 512

// Localizer is the hybrid particle-filter + mean-shift estimator. It is
// not safe for concurrent use. Ingest runs on the calling goroutine;
// only mean-shift estimation parallelizes internally (Config.Workers).
type Localizer struct {
	cfg Config

	// Particle state, struct-of-arrays for cache-friendly weighting:
	// the coordinates one array each, the weights in class form (a class
	// index per particle into a table of the few distinct weights and
	// their logs; see weightClasses).
	xs, ys, ss []float64
	wts        weightClasses

	grid      *spatial.Grid
	gridDirty bool

	met *filterMetrics // nil when Config.Metrics is nil

	stream *rng.Stream
	iter   int

	// Runtime statistics, exported with the state.
	lastSubset  int
	subsetTotal int64
	emptyIters  int

	// sensorPos records the position of every sensor heard from, for
	// the MaxSensorGap observability filter.
	sensorPos map[int]geometry.Vec

	// Per-reading scratch, sized to the selected subset: it grows on
	// demand (see grow) to the largest subset seen, so once warm the
	// steady-state ingest path allocates nothing. subBuf holds the
	// subset's log-posteriors, then in place their cumulative
	// distribution, then — once resample has drawn its picks — the
	// survivors' x.
	idsBuf  []int32
	subBuf  []float64
	pickBuf []int32
	syBuf   []float64 // resample survivors, y
	ssBuf   []float64 // resample survivors, strength

	// Estimation state (refresh path, not per-reading). The searcher
	// holds only its configuration; each search allocates its working
	// storage and drops it on return. coords is the coordinate arrays
	// as the searcher reads them, in place (see points).
	searcher  *meanshift.Searcher
	coords    [][]float64
	startsBuf []float64
}

// NewLocalizer creates a localizer with uniformly random particles
// (Section V-A: no prior knowledge of source locations or strengths).
func NewLocalizer(cfg Config) (*Localizer, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	l := &Localizer{
		cfg:    cfg,
		met:    newFilterMetrics(cfg.Metrics),
		stream: rng.NewNamed(cfg.Seed, "core/localizer"),
	}
	n := cfg.NumParticles
	l.xs = make([]float64, n)
	l.ys = make([]float64, n)
	l.ss = make([]float64, n)
	l.wts.reset(n, 1/float64(n))
	for i := 0; i < n; i++ {
		if cfg.Init != nil {
			pos, s := cfg.Init(l.stream)
			l.xs[i] = clampF(pos.X, cfg.Bounds.Min.X, cfg.Bounds.Max.X)
			l.ys[i] = clampF(pos.Y, cfg.Bounds.Min.Y, cfg.Bounds.Max.Y)
			l.ss[i] = clampF(s, cfg.StrengthMin, cfg.StrengthMax)
		} else {
			l.xs[i] = l.stream.Uniform(cfg.Bounds.Min.X, cfg.Bounds.Max.X)
			l.ys[i] = l.stream.Uniform(cfg.Bounds.Min.Y, cfg.Bounds.Max.Y)
			l.ss[i] = l.stream.Uniform(cfg.StrengthMin, cfg.StrengthMax)
		}
	}
	l.grid = spatial.NewGrid(cfg.Bounds, cfg.FusionRange/2)
	l.gridDirty = true
	searcher, err := meanshift.NewSearcher(meanshift.Config{
		Bandwidth: []float64{cfg.BandwidthXY, cfg.BandwidthXY, cfg.BandwidthStr},
		Workers:   cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	l.searcher = searcher
	l.coords = [][]float64{l.xs, l.ys, l.ss}
	l.startsBuf = make([]float64, 0, 3*cfg.MeanShiftStarts)
	if cfg.MaxSensorGap > 0 {
		l.sensorPos = make(map[int]geometry.Vec)
	}
	return l, nil
}

// Particles returns a copy of the current particle population. Hot
// loops that read the population every step should use AppendParticles
// with a reused buffer instead — this convenience form allocates a
// fresh slice per call.
func (l *Localizer) Particles() []Particle {
	return l.AppendParticles(make([]Particle, 0, len(l.xs)))
}

// AppendParticles appends the current particle population to dst and
// returns the extended slice — the allocation-free way to sample the
// population every step: pass the previous call's result re-sliced to
// zero length (buf = l.AppendParticles(buf[:0])) and the buffer is
// reused once it has grown to the population size.
func (l *Localizer) AppendParticles(dst []Particle) []Particle {
	for i := range l.xs {
		dst = append(dst, Particle{
			Pos:      geometry.V(l.xs[i], l.ys[i]),
			Strength: l.ss[i],
			Weight:   l.wts.weight(i),
		})
	}
	return dst
}

// Ingest performs one filter iteration with a single measurement
// (Section V-B,C,E): select the particles within the sensor's fusion
// range, reweight them by the Poisson likelihood of the observed CPM,
// resample them (with jitter on duplicates), and re-inject a small
// fraction of random particles.
//
// The steady-state path is allocation-free: every stage works in
// reused scratch buffers that grow to the largest selected subset (not
// the population), and the spatial index is updated incrementally
// instead of rebuilt (see DESIGN.md §11 for the full performance model
// and the per-particle memory budget).
func (l *Localizer) Ingest(sen sensor.Sensor, cpm int) {
	l.iter++
	if l.sensorPos != nil {
		l.sensorPos[sen.ID] = sen.Pos
	}
	t0 := l.met.now()
	ids := l.selectParticles(sen)
	if l.met != nil {
		t0 = l.met.lap(l.met.selectH, t0)
	}
	l.lastSubset = len(ids)
	l.subsetTotal += int64(len(ids))
	l.met.ingest(len(ids))
	if len(ids) == 0 {
		l.emptyIters++
		return
	}

	// Prediction (V-B): P'' = F_movement(P'); identity for static
	// sources. The movement model runs fused into the weighting loop —
	// one pass over the subset instead of two — so its cost is charged
	// to the weight stage.
	if l.met != nil {
		t0 = l.met.lap(l.met.predictH, t0)
	}

	// Weighting (V-C): posterior ∝ prior × Poisson(cpm | λ(particle)).
	// Log-space with max-shift keeps the arithmetic finite even when
	// the counts are large.
	cum, priorMass := l.weigh(sen, cpm, ids)
	if l.met != nil {
		t0 = l.met.lap(l.met.weightH, t0)
	}
	l.resample(ids, cum, priorMass)
	if l.met != nil {
		l.met.lap(l.met.resampleH, t0)
	}
}

// weigh computes the log-posterior of every selected particle into
// subBuf, turns it in place into a cumulative selection distribution,
// and returns the distribution's total mass together with the subset's
// prior mass share. The movement model, when one is configured, runs on
// each particle just before it is weighed.
//
// The subset is processed in fixed-size chunks. Each chunk fills its
// subBuf range and produces (max, mass) partials; partials combine in
// chunk order. The chunk boundaries are a function of the subset size
// alone, so they fix the floating-point reduction order, and with it
// the filter state, independently of anything else.
func (l *Localizer) weigh(sen sensor.Sensor, cpm int, ids []int32) (cum, priorMass float64) {
	k := len(ids)
	l.subBuf = grow(l.subBuf, k, len(l.xs))

	// Per-reading constants, hoisted out of the particle loop: the
	// calibration factor of Eq. (4) and — the big one — the Poisson
	// log-factorial term, which depends only on the observed count and
	// which the seed implementation recomputed per particle via
	// math.Lgamma.
	effC := radiation.CPMPerMicroCurie * sen.Efficiency
	bg := sen.Background
	kf := float64(cpm)
	lgk := stat.LogFactorial(cpm)
	maxLog := math.Inf(-1)
	for lo := 0; lo < k; lo += weightChunkSize {
		cMax, cMass := l.weightChunk(ids, lo, min(lo+weightChunkSize, k), sen, cpm, kf, lgk, effC, bg)
		if cMax > maxLog {
			maxLog = cMax
		}
		priorMass += cMass
	}
	if priorMass <= 0 {
		// The whole neighbourhood is massless; revive it uniformly so
		// resampling below is well defined.
		priorMass = float64(k) / float64(len(l.xs))
		for i := range l.subBuf {
			l.subBuf[i] = 0
		}
		maxLog = 0
	}

	// Posterior selection probabilities within the subset: exponentiate
	// and sum in one in-place pass that builds the cdf.
	if math.IsInf(maxLog, -1) {
		// Nothing in the subset can explain the reading at all; fall
		// back to uniform selection so diversity survives.
		return uniformCDF(l.subBuf), priorMass
	}
	cum = 0
	for i := range l.subBuf {
		cum += math.Exp(l.subBuf[i] - maxLog)
		l.subBuf[i] = cum
	}
	if cum <= 0 {
		return uniformCDF(l.subBuf), priorMass
	}
	return cum, priorMass
}

// weightChunk scores the chunk ids[lo:hi] of the selected subset: it
// fills subBuf[lo:hi] with per-particle log-posteriors and returns the
// chunk's max log-posterior and prior mass. With a movement model
// configured each particle moves first, so prediction and weighting
// make one pass over the subset.
func (l *Localizer) weightChunk(ids []int32, lo, hi int, sen sensor.Sensor, cpm int, kf, lgk, effC, bg float64) (cMax, cMass float64) {
	moving := l.cfg.Movement != nil
	cls, w, lw := l.wts.cls, l.wts.w, l.wts.lw
	cMax = math.Inf(-1)
	for i := lo; i < hi; i++ {
		id := ids[i]
		if moving {
			l.move(id)
		}
		dx := sen.Pos.X - l.xs[id]
		dy := sen.Pos.Y - l.ys[id]
		lambda := effC*(l.ss[id]/(1+dx*dx+dy*dy)) + bg
		wc := cls[id]
		var ll float64
		switch {
		case cpm >= 0 && lambda > 0:
			ll = kf*math.Log(lambda) - lambda - lgk + lw[wc]
		case cpm == 0 && lambda == 0:
			ll = lw[wc]
		default:
			ll = math.Inf(-1)
		}
		l.subBuf[i] = ll
		if ll > cMax {
			cMax = ll
		}
		cMass += w[wc]
	}
	return cMax, cMass
}

// uniformCDF overwrites cdf with the uniform cumulative distribution
// 1, 2, ..., len(cdf) and returns its total.
func uniformCDF(cdf []float64) float64 {
	var cum float64
	for i := range cdf {
		cum++
		cdf[i] = cum
	}
	return cum
}

// grow returns buf with length k, limit ≥ k being the largest length
// it can ever need (the population size). When its capacity is short
// it reallocates with the capacity at least doubled but capped at
// limit, so scratch sized to the subset costs O(log n) reallocations
// over a run and never exceeds n. The contents are unspecified.
func grow[T any](buf []T, k, limit int) []T {
	if cap(buf) < k {
		return make([]T, k, min(max(k, 2*cap(buf)), limit))
	}
	return buf[:k]
}

// selectParticles implements Eq. (5): P' = {p : ‖S_i − p‖ ≤ d_i}. With
// the fusion range disabled every particle is selected (the classic
// formulation of Fig. 2).
func (l *Localizer) selectParticles(sen sensor.Sensor) []int32 {
	if l.cfg.DisableFusionRange {
		l.idsBuf = grow(l.idsBuf, len(l.xs), len(l.xs))
		for i := range l.idsBuf {
			l.idsBuf[i] = int32(i)
		}
		return l.idsBuf
	}
	if l.gridDirty {
		l.grid.Rebuild(l.xs, l.ys)
		l.gridDirty = false
	}
	// The sorted form keeps selection — and the floating-point order of
	// everything downstream — a pure function of the particle state:
	// incremental Move updates leave the grid's bucket order dependent
	// on update history, which an ExportState/ImportState round trip
	// (canonical Rebuild) could not reproduce.
	l.idsBuf = l.grid.WithinRadiusSorted(sen.Pos, l.cfg.FusionRange, l.xs, l.ys, l.idsBuf[:0])
	return l.idsBuf
}

// resample draws len(ids) survivors from the subset via systematic
// resampling over the cumulative posterior in subBuf (total mass cum),
// jitters duplicates (V-E), injects fresh random particles, and
// restores the subset's prior mass share uniformly across survivors —
// the "uniform weights" reset of Section V-E, which keeps the selective
// update from starving untouched regions. Survivors materialize into
// reused scratch arrays and the spatial index is moved incrementally:
// the stage allocates nothing and the index never pays a full rebuild
// for a partial update.
func (l *Localizer) resample(ids []int32, cum, priorMass float64) {
	n := len(ids)
	l.pickBuf = grow(l.pickBuf, n, len(l.xs))
	step := cum / float64(n)
	u := l.stream.Float64() * step
	j := 0
	for k := 0; k < n; k++ {
		target := u + float64(k)*step
		for j < n-1 && l.subBuf[j] < target {
			j++
		}
		l.pickBuf[k] = int32(j)
	}

	// Materialize survivors into scratch. pickBuf is sorted, so a
	// duplicate is any pick equal to its predecessor; the first copy
	// keeps the exact parameters, later copies are jittered. The
	// two-phase copy (gather, then write back) keeps later picks from
	// reading slots an earlier write already clobbered. The cdf is dead
	// once the picks are drawn, so the survivors' x reuse its buffer.
	l.syBuf = grow(l.syBuf, n, len(l.xs))
	l.ssBuf = grow(l.ssBuf, n, len(l.xs))
	sx, sy, ss := l.subBuf, l.syBuf, l.ssBuf
	strengthNoise := l.cfg.ResampleNoise * l.cfg.StrengthMax / 200
	for k := 0; k < n; k++ {
		src := ids[l.pickBuf[k]]
		x, y, s := l.xs[src], l.ys[src], l.ss[src]
		if k > 0 && l.pickBuf[k] == l.pickBuf[k-1] {
			x = l.clampX(x + l.stream.Normal(0, l.cfg.ResampleNoise))
			y = l.clampY(y + l.stream.Normal(0, l.cfg.ResampleNoise))
			s = l.clampS(s + l.stream.Normal(0, strengthNoise))
		}
		sx[k], sy[k], ss[k] = x, y, s
	}

	// Random injection (V-E): provision for sources appearing in areas
	// the filter has written off.
	inject := int(math.Ceil(l.cfg.InjectionFrac * float64(n)))
	if l.cfg.InjectionFrac == 0 {
		inject = 0
	}
	for k := 0; k < inject; k++ {
		at := l.stream.IntN(n)
		sx[at] = l.stream.Uniform(l.cfg.Bounds.Min.X, l.cfg.Bounds.Max.X)
		sy[at] = l.stream.Uniform(l.cfg.Bounds.Min.Y, l.cfg.Bounds.Max.Y)
		ss[at] = l.stream.Uniform(l.cfg.StrengthMin, l.cfg.StrengthMax)
	}

	// Keep the spatial index fresh incrementally while the subset is a
	// small fraction of the population (the paper's steady state, where
	// per-item Move beats re-hashing everything); for bulk updates a
	// single lazy Rebuild at the next selection is cheaper than n/4+
	// bucket edits.
	liveGrid := l.gridLive()
	if liveGrid && n > len(l.xs)/4 {
		liveGrid = false
		l.gridDirty = true
	}
	for k := 0; k < n; k++ {
		id := ids[k]
		if liveGrid {
			l.grid.Move(int(id), geometry.V(l.xs[id], l.ys[id]), geometry.V(sx[k], sy[k]))
		}
		l.xs[id] = sx[k]
		l.ys[id] = sy[k]
		l.ss[id] = ss[k]
	}
	l.wts.set(ids, l.wts.find(priorMass/float64(n)))
}

// gridLive reports whether the spatial index is kept up to date move by
// move: every particle filed under the cell of its current position.
// A dirty index is rebuilt from the positions at the next selection,
// and with the fusion range disabled there is no index to keep.
func (l *Localizer) gridLive() bool {
	return !l.gridDirty && !l.cfg.DisableFusionRange
}

// The clamps use the builtin min and max, which the compiler inlines;
// math.Min and math.Max are assembly calls on amd64. Both give the same
// results, NaN and signed zeros included.

func clampF(v, lo, hi float64) float64 {
	return max(lo, min(hi, v))
}

func (l *Localizer) clampX(x float64) float64 {
	return max(l.cfg.Bounds.Min.X, min(l.cfg.Bounds.Max.X, x))
}

func (l *Localizer) clampY(y float64) float64 {
	return max(l.cfg.Bounds.Min.Y, min(l.cfg.Bounds.Max.Y, y))
}

func (l *Localizer) clampS(s float64) float64 {
	return max(l.cfg.StrengthMin, min(l.cfg.StrengthMax, s))
}

// Estimates recovers the current source estimates (Section V-D): run
// mean-shift from weighted-sampled starts over the particle density in
// (x, y, strength) space, merge converged modes, and report the modes
// that hold enough mass and plausible strength. The search's working
// storage (a cell-ordered copy of the particles and the per-start
// staging) lives only for the call, so between refreshes the localizer
// holds no copy of its population. The searcher reads the particle
// arrays and the weight classes in place; particles with weight ≤ 0
// take no part.
func (l *Localizer) Estimates() []Estimate { return l.estimatesOf(l.points()) }

// points is the population as the searcher reads it: the coordinate
// arrays and the weights in class form, in place.
func (l *Localizer) points() meanshift.Points {
	return meanshift.Points{Coords: l.coords, Class: l.wts.cls, Weights: l.wts.w}
}

// SkipEstimates advances the localizer as Estimates would, without
// searching: a caller that already holds the estimates Estimates would
// return (a journaled refresh being replayed) calls it instead. The
// only filter state Estimates changes is the RNG stream, by the one
// draw that places the starts, taken whenever some particle carries
// weight; so this takes that draw under the same condition, and every
// later ingest and search sees the stream a search would have left.
// It records no estimate-stage timing or population gauges. A class
// holds particles exactly when its count is positive, so scanning the
// live classes answers "does some particle carry weight".
func (l *Localizer) SkipEstimates() {
	for c, w := range l.wts.w {
		if l.wts.refs[c] > 0 && !(w <= 0) {
			l.stream.Float64()
			return
		}
	}
}

// estimatesOf is Estimates over the particle view pts: x, y and
// strength columns and the weights in class form. Apart from pts it
// reads only the configuration, the searcher, the sensor registry and
// one draw from the localizer's RNG stream, so it can run on a copy of
// the population as well as on the live arrays.
func (l *Localizer) estimatesOf(pts meanshift.Points) []Estimate {
	t0 := l.met.now()
	n := len(pts.Class)
	var total, total2 float64
	last := -1 // the last particle with weight > 0 (or NaN)
	for i, c := range pts.Class {
		w := pts.Weights[c]
		if w <= 0 {
			continue
		}
		total += w
		total2 += w * w
		last = i
	}
	ess := 0.0
	if total2 > 0 {
		ess = total * total / total2
	}
	defer l.met.estimated(ess, n, t0)
	if total <= 0 {
		return nil
	}

	starts := l.sampleStarts(pts, total, last)
	modes, err := l.searcher.FindModes(pts, starts)
	if err != nil {
		// Only reachable through an internal inconsistency; surface
		// loudly in tests rather than corrupt results.
		panic(fmt.Sprintf("core: mean-shift failed: %v", err))
	}
	if len(modes) == 0 {
		return nil
	}
	mass, err := l.searcher.AssignMass(modes, pts, 3)
	if err != nil {
		panic(fmt.Sprintf("core: mass assignment failed: %v", err))
	}

	var out []Estimate
	for i, m := range modes {
		frac := mass[i] / total
		if frac < l.cfg.ModeMassMin {
			continue
		}
		if m.Point[2] < l.cfg.MinSourceStrength {
			continue
		}
		if !l.observable(geometry.V(m.Point[0], m.Point[1])) {
			continue
		}
		out = append(out, Estimate{
			Pos:      geometry.V(m.Point[0], m.Point[1]),
			Strength: m.Point[2],
			Mass:     frac,
			Starts:   m.Starts,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Mass > out[b].Mass })
	return out
}

// observable reports whether a mode location lies within MaxSensorGap
// of any sensor the filter has heard from. With the filter disabled, or
// before any sensor has reported, everything is observable.
func (l *Localizer) observable(p geometry.Vec) bool {
	if l.cfg.MaxSensorGap <= 0 || len(l.sensorPos) == 0 {
		return true
	}
	gap2 := l.cfg.MaxSensorGap * l.cfg.MaxSensorGap
	for _, sp := range l.sensorPos {
		if sp.Dist2(p) <= gap2 {
			return true
		}
	}
	return false
}

// sampleStarts draws MeanShiftStarts start points from the particles
// in pts by systematic weighted sampling, so starts concentrate where
// the mass is while still covering diffuse regions early on. The walk
// visits only particles with weight > 0 (or NaN), total being their
// weight sum and last the index of the last of them (≥ 0). The starts
// land in a reused scratch buffer.
func (l *Localizer) sampleStarts(pts meanshift.Points, total float64, last int) []float64 {
	m := l.cfg.MeanShiftStarts
	xs, ys, ss := pts.Coords[0], pts.Coords[1], pts.Coords[2]
	cls, ws := pts.Class, pts.Weights
	starts := l.startsBuf[:0]
	step := total / float64(m)
	u := l.stream.Float64() * step
	var cum float64
	j := nextLive(pts, 0)
	for k := 0; k < m; k++ {
		target := u + float64(k)*step
		for j < last && cum+ws[cls[j]] < target {
			cum += ws[cls[j]]
			j = nextLive(pts, j+1)
		}
		starts = append(starts, xs[j], ys[j], ss[j])
	}
	l.startsBuf = starts
	return starts
}

// nextLive returns the first index ≥ j whose weight is not ≤ 0; the
// caller guarantees one exists.
func nextLive(pts meanshift.Points, j int) int {
	for pts.Weights[pts.Class[j]] <= 0 {
		j++
	}
	return j
}

// Centroid returns the weighted centroid of the whole population — the
// traditional particle-filter point estimate. With multiple sources it
// lands between them (Section V-D's motivating failure); it is exposed
// for the estimator ablation benchmark.
func (l *Localizer) Centroid() Estimate {
	var sx, sy, ss, sw float64
	for i := range l.xs {
		w := l.wts.weight(i)
		sx += w * l.xs[i]
		sy += w * l.ys[i]
		ss += w * l.ss[i]
		sw += w
	}
	if sw <= 0 {
		return Estimate{}
	}
	return Estimate{
		Pos:      geometry.V(sx/sw, sy/sw),
		Strength: ss / sw,
		Mass:     1,
	}
}
