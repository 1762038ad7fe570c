package spatial

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"radloc/internal/geometry"
	"radloc/internal/rng"
)

func bounds100() geometry.Rect {
	return geometry.NewRect(geometry.V(0, 0), geometry.V(100, 100))
}

// points holds the coordinate arrays a grid indexes, the way its
// callers keep them: one array per axis.
type points struct{ xs, ys []float64 }

// rebuild indexes pts in g and returns the arrays g now reads.
func rebuild(g *Grid, pts []geometry.Vec) *points {
	p := &points{xs: make([]float64, len(pts)), ys: make([]float64, len(pts))}
	for i, v := range pts {
		p.xs[i], p.ys[i] = v.X, v.Y
	}
	g.Rebuild(p.xs, p.ys)
	return p
}

// query is WithinRadiusSorted over p into a fresh slice.
func (p *points) query(g *Grid, c geometry.Vec, r float64) []int32 {
	return g.WithinRadiusSorted(c, r, p.xs, p.ys, nil)
}

// move re-files item id in g from its position in p to v and sets its
// position in p.
func (p *points) move(g *Grid, id int, v geometry.Vec) {
	g.Move(id, geometry.V(p.xs[id], p.ys[id]), v)
	p.xs[id], p.ys[id] = v.X, v.Y
}

// TestWithinRadiusMatchesBruteForce compares WithinRadiusSorted with
// a scan of every point in ascending index, including points outside
// the bounds (clamped into the border cells) and query discs that
// overhang the bounds.
func TestWithinRadiusMatchesBruteForce(t *testing.T) {
	s := rng.New(1, 2)
	pts := make([]geometry.Vec, 500)
	for i := range pts {
		pts[i] = geometry.V(s.Uniform(-5, 105), s.Uniform(-5, 105))
	}
	g := NewGrid(bounds100(), 10)
	p := rebuild(g, pts)

	for trial := 0; trial < 50; trial++ {
		c := geometry.V(s.Uniform(-10, 110), s.Uniform(-10, 110))
		r := s.Uniform(0, 40)
		got := p.query(g, c, r)
		var want []int32
		for i, p := range pts {
			if p.Dist2(c) <= r*r {
				want = append(want, int32(i))
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d hits, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: hit mismatch at %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestOutOfBoundsPointsRetained(t *testing.T) {
	g := NewGrid(bounds100(), 10)
	pts := []geometry.Vec{
		geometry.V(-50, -50),
		geometry.V(150, 150),
		geometry.V(50, 50),
	}
	p := rebuild(g, pts)
	if len(g.slotOf) != 3 {
		t.Fatalf("%d items indexed, want 3", len(g.slotOf))
	}
	got := p.query(g, geometry.V(-50, -50), 1)
	if len(got) != 1 || got[0] != 0 {
		t.Errorf("out-of-bounds point not found: %v", got)
	}
	got = p.query(g, geometry.V(150, 150), 1)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("far out-of-bounds point not found: %v", got)
	}
}

func TestRebuildReplacesContents(t *testing.T) {
	g := NewGrid(bounds100(), 10)
	rebuild(g, []geometry.Vec{geometry.V(10, 10)})
	p := rebuild(g, []geometry.Vec{geometry.V(90, 90)})
	if got := p.query(g, geometry.V(10, 10), 5); len(got) != 0 {
		t.Errorf("stale point survived rebuild: %v", got)
	}
	if got := p.query(g, geometry.V(90, 90), 5); len(got) != 1 {
		t.Errorf("new point missing: %v", got)
	}
}

func TestEdgeCases(t *testing.T) {
	g := NewGrid(bounds100(), 10)
	p := rebuild(g, nil)
	if len(g.slotOf) != 0 {
		t.Errorf("empty rebuild indexed %d items", len(g.slotOf))
	}
	if got := p.query(g, geometry.V(50, 50), 10); len(got) != 0 {
		t.Errorf("query on empty grid: %v", got)
	}
	p = rebuild(g, []geometry.Vec{geometry.V(50, 50)})
	if got := p.query(g, geometry.V(50, 50), -1); len(got) != 0 {
		t.Errorf("negative radius: %v", got)
	}
	// Radius 0 finds exactly coincident points.
	if got := p.query(g, geometry.V(50, 50), 0); len(got) != 1 {
		t.Errorf("zero radius: %v", got)
	}
}

func TestDegenerateCellSizes(t *testing.T) {
	// Non-positive cell size falls back to a sane default.
	g := NewGrid(bounds100(), 0)
	if g.geo.size <= 0 {
		t.Errorf("cell size = %v", g.geo.size)
	}
	p := rebuild(g, []geometry.Vec{geometry.V(1, 1), geometry.V(99, 99)})
	if got := p.query(g, geometry.V(0, 0), 5); len(got) != 1 {
		t.Errorf("fallback grid query: %v", got)
	}

	// A tiny cell size over a big area must not explode memory: the
	// constructor caps total cells.
	big := NewGrid(geometry.NewRect(geometry.V(0, 0), geometry.V(1e6, 1e6)), 1e-6)
	p = rebuild(big, []geometry.Vec{geometry.V(5e5, 5e5)})
	if got := p.query(big, geometry.V(5e5, 5e5), 1); len(got) != 1 {
		t.Errorf("capped grid query: %v", got)
	}

	// Zero-area bounds still work.
	pt := NewGrid(geometry.NewRect(geometry.V(3, 3), geometry.V(3, 3)), 0)
	p = rebuild(pt, []geometry.Vec{geometry.V(3, 3)})
	if got := p.query(pt, geometry.V(3, 3), 1); len(got) != 1 {
		t.Errorf("point-bounds grid query: %v", got)
	}
}

func TestDstReuse(t *testing.T) {
	g := NewGrid(bounds100(), 10)
	p := rebuild(g, []geometry.Vec{geometry.V(10, 10), geometry.V(12, 10)})
	buf := make([]int32, 0, 8)
	out := g.WithinRadiusSorted(geometry.V(11, 10), 5, p.xs, p.ys, buf)
	if len(out) != 2 {
		t.Fatalf("hits = %v", out)
	}
	if &out[0] != &buf[:1][0] {
		t.Error("WithinRadiusSorted did not reuse provided capacity")
	}
}

// Property: grid query equals brute force for random configurations.
func TestWithinRadiusProperty(t *testing.T) {
	f := func(seed uint64, n uint8, cx, cy uint16, rr uint8) bool {
		s := rng.New(seed, 99)
		pts := make([]geometry.Vec, int(n)%64+1)
		for i := range pts {
			pts[i] = geometry.V(s.Uniform(0, 100), s.Uniform(0, 100))
		}
		g := NewGrid(bounds100(), 7)
		p := rebuild(g, pts)
		c := geometry.V(float64(cx%120)-10, float64(cy%120)-10)
		r := float64(rr % 50)
		got := p.query(g, c, r)
		want := 0
		for _, p := range pts {
			if p.Dist2(c) <= r*r {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// cellSlots returns the slab positions of cell c's items in cell
// order: its chunk chain from first to last, the last chunk holding
// only the items past the full ones.
func cellSlots(g *Grid, c int) []int32 {
	var chain []int32
	for k := g.cells[c].tail; k >= 0; k = g.prev[k] {
		chain = append(chain, k)
	}
	slices.Reverse(chain)
	n := int(g.cells[c].count)
	var slots []int32
	for _, k := range chain {
		for off := int32(0); off < chunkLen && len(slots) < n; off++ {
			slots = append(slots, k*chunkLen+off)
		}
	}
	return slots
}

// unsortedWithinRadius is the plain cell walk WithinRadiusSorted
// performs, appending hits in cell order instead of marking a bitset.
func unsortedWithinRadius(g *Grid, p *points, center geometry.Vec, r float64) []int32 {
	var dst []int32
	if r < 0 {
		return dst
	}
	x0, y0 := g.geo.Coords(geometry.V(center.X-r, center.Y-r))
	x1, y1 := g.geo.Coords(geometry.V(center.X+r, center.Y+r))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, slot := range cellSlots(g, cy*g.geo.nx+cx) {
				id := g.store[slot]
				if geometry.V(p.xs[id], p.ys[id]).Dist2(center) <= r*r {
					dst = append(dst, id)
				}
			}
		}
	}
	return dst
}

// TestWithinRadiusSortedMatchesUnsorted pins the sorted query's
// contract: the same membership as a plain walk of the overlapped
// cells' chunks, always in ascending ID order, for points and discs
// inside and outside the bounds.
func TestWithinRadiusSortedMatchesUnsorted(t *testing.T) {
	s := rng.New(9, 4)
	pts := make([]geometry.Vec, 700)
	for i := range pts {
		pts[i] = geometry.V(s.Uniform(-5, 105), s.Uniform(-5, 105))
	}
	g := NewGrid(bounds100(), 7)
	p := rebuild(g, pts)

	for trial := 0; trial < 60; trial++ {
		c := geometry.V(s.Uniform(-10, 110), s.Uniform(-10, 110))
		r := s.Uniform(0, 50)
		plain := unsortedWithinRadius(g, p, c, r)
		sorted := p.query(g, c, r)
		if !slices.IsSorted(sorted) {
			t.Fatalf("trial %d: WithinRadiusSorted returned unsorted IDs", trial)
		}
		slices.Sort(plain)
		if len(plain) != len(sorted) {
			t.Fatalf("trial %d: sorted returned %d IDs, unsorted %d", trial, len(sorted), len(plain))
		}
		for i := range plain {
			if plain[i] != sorted[i] {
				t.Fatalf("trial %d: membership differs at %d: %d vs %d", trial, i, sorted[i], plain[i])
			}
		}
	}
}

// TestWithinRadiusSortedIndependentOfMoveHistory is the determinism
// property the filter's selection stage rests on: the grid's in-cell
// order depends on the sequence of Move calls (swap-remove reorders
// cells), but WithinRadiusSorted must be a pure function of the
// current positions — identical results whether the grid got
// there by incremental moves or by one bulk Rebuild.
func TestWithinRadiusSortedIndependentOfMoveHistory(t *testing.T) {
	s := rng.New(3, 8)
	n := 400
	start := make([]geometry.Vec, n)
	for i := range start {
		start[i] = geometry.V(s.Uniform(0, 100), s.Uniform(0, 100))
	}

	moved := NewGrid(bounds100(), 9)
	p := rebuild(moved, start)
	// Shuffle in-cell order with a long, overlapping move history.
	for step := 0; step < 3000; step++ {
		p.move(moved, s.IntN(n), geometry.V(s.Uniform(0, 100), s.Uniform(0, 100)))
	}

	// The rebuilt grid reads the same arrays, holding the final positions.
	rebuilt := NewGrid(bounds100(), 9)
	rebuilt.Rebuild(p.xs, p.ys)

	for trial := 0; trial < 40; trial++ {
		c := geometry.V(s.Uniform(0, 100), s.Uniform(0, 100))
		r := s.Uniform(1, 45)
		a := p.query(moved, c, r)
		b := p.query(rebuilt, c, r)
		if len(a) != len(b) {
			t.Fatalf("trial %d: moved grid found %d, rebuilt %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d: ID %d vs %d at position %d", trial, a[i], b[i], i)
			}
		}
	}
}

// linearMoveOracle replays Moves over plain per-cell buckets, the way
// Grid.Move did before it tracked each item's slot: find the item by a
// linear search of its old cell's bucket, swap the bucket's last item
// into its place, and append it to the new cell's bucket. Cells come
// from the grid under test, which the oracle never moves.
type linearMoveOracle struct {
	g      *Grid
	cells  [][]int32
	cellOf []int
}

func newLinearMoveOracle(g *Grid, pts []geometry.Vec) *linearMoveOracle {
	o := &linearMoveOracle{g: g, cells: make([][]int32, len(g.cells)), cellOf: make([]int, len(pts))}
	for i, p := range pts {
		c := g.geo.Index(p)
		o.cells[c] = append(o.cells[c], int32(i))
		o.cellOf[i] = c
	}
	return o
}

func (o *linearMoveOracle) move(id int, p geometry.Vec) {
	oldC, newC := o.cellOf[id], o.g.geo.Index(p)
	if oldC == newC {
		return
	}
	bucket := o.cells[oldC]
	for i, v := range bucket {
		if v == int32(id) {
			bucket[i] = bucket[len(bucket)-1]
			o.cells[oldC] = bucket[:len(bucket)-1]
			break
		}
	}
	o.cells[newC] = append(o.cells[newC], int32(id))
	o.cellOf[id] = newC
}

// TestMoveMatchesLinearSearch replays seeded random Move sequences —
// concentrated moves that keep buckets crowded, moves that stay in
// their cell, moves out of bounds (clamped to border cells) — against
// the linear-search oracle. Every cell's chunk chain must hold the
// same IDs in the same order as the oracle's bucket after every move,
// every item's slab slot must point back at it, and every item must
// sit in the cell of its current position.
func TestMoveMatchesLinearSearch(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		s := rng.New(41, seed)
		n := 300
		pts := make([]geometry.Vec, n)
		for i := range pts {
			pts[i] = geometry.V(s.Normal(50, 8), s.Normal(50, 8))
		}
		g := NewGrid(bounds100(), 7)
		ps := rebuild(g, pts)
		o := newLinearMoveOracle(g, pts)
		for step := 0; step < 2000; step++ {
			id := s.IntN(n)
			var p geometry.Vec
			switch s.IntN(4) {
			case 0: // stay near: often the same cell
				p = geometry.V(ps.xs[id]+s.Normal(0, 0.5), ps.ys[id]+s.Normal(0, 0.5))
			case 1: // anywhere, out of bounds included
				p = geometry.V(s.Uniform(-20, 120), s.Uniform(-20, 120))
			default: // concentrated
				p = geometry.V(s.Normal(50, 4), s.Normal(50, 4))
			}
			ps.move(g, id, p)
			o.move(id, p)
			for c := range g.cells {
				slots := cellSlots(g, c)
				if len(slots) != len(o.cells[c]) {
					t.Fatalf("seed %d step %d: cell %d holds %d items, oracle %d", seed, step, c, len(slots), len(o.cells[c]))
				}
				for i, slot := range slots {
					v := g.store[slot]
					if v != o.cells[c][i] {
						t.Fatalf("seed %d step %d: cell %d item %d = %d, oracle %d", seed, step, c, i, v, o.cells[c][i])
					}
					if g.slotOf[v] != slot {
						t.Fatalf("seed %d step %d: item %d at slot %d, slotOf says %d", seed, step, v, slot, g.slotOf[v])
					}
					if at := g.geo.Index(geometry.V(ps.xs[v], ps.ys[v])); at != c {
						t.Fatalf("seed %d step %d: item %d filed in cell %d, its position is in cell %d", seed, step, v, c, at)
					}
				}
			}
		}
	}
}

// TestSlabFollowsOccupancy drives a narrow hotspot of items across the
// grid and back, so every cell it visits peaks and then empties. The
// slab grows only when no chunk is free, when every chunk is in use
// and each non-empty cell holds at most one partial chunk, so it may
// never exceed n + chunkLen × the most cells ever non-empty at once.
// Buckets that kept each visited cell's peak would hold the sum of the
// peaks, several times n. Free chunks must be exactly the ones no cell
// uses.
func TestSlabFollowsOccupancy(t *testing.T) {
	s := rng.New(17, 3)
	n := 2000
	pts := make([]geometry.Vec, n)
	for i := range pts {
		pts[i] = geometry.V(s.Normal(10, 2), s.Normal(10, 2))
	}
	g := NewGrid(bounds100(), 7)
	ps := rebuild(g, pts)
	peak := make([]int, len(g.cells)) // each cell's most items at once
	nonEmpty := func() int {
		k := 0
		for c, cl := range g.cells {
			peak[c] = max(peak[c], int(cl.count))
			if cl.count > 0 {
				k++
			}
		}
		return k
	}
	maxNonEmpty := nonEmpty()
	for step := 0; step < 60000; step++ {
		// The hotspot's centre sweeps the diagonal out and back twice.
		f := math.Abs(math.Mod(float64(step)/15000, 2) - 1)
		hx := 90 - 80*f
		ps.move(g, s.IntN(n), geometry.V(s.Normal(hx, 2), s.Normal(hx, 2)))
		maxNonEmpty = max(maxNonEmpty, nonEmpty())
	}

	bound := n + chunkLen*maxNonEmpty
	if len(g.store) > bound {
		t.Errorf("slab holds %d slots, want at most %d (n %d, at most %d non-empty cells)", len(g.store), bound, n, maxNonEmpty)
	}
	peaks := 0
	for _, p := range peak {
		peaks += p
	}
	if peaks <= bound {
		t.Fatalf("cell peaks sum to %d, within the bound %d: the sweep cannot tell the slab from per-cell buckets", peaks, bound)
	}
	used := 0
	for c := range g.cells {
		used += (len(cellSlots(g, c)) + chunkLen - 1) / chunkLen
	}
	freeChunks := 0
	for k := g.free; k >= 0; k = g.prev[k] {
		freeChunks++
	}
	if used+freeChunks != len(g.prev) {
		t.Errorf("%d chunks in cells + %d free, slab has %d", used, freeChunks, len(g.prev))
	}
}

// returnsWithin fails the test unless fn returns within a few seconds:
// the guard for inputs that once sent the cell sizing into an endless
// loop. A hung fn is left running; the failure is what matters.
func returnsWithin(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestNonFiniteBoundsTerminate: bounds with an infinite or NaN extent
// get one cell instead of doubling the cell size forever, so a
// non-finite point can neither hang a grid over it nor lose any finite
// point.
func TestNonFiniteBoundsTerminate(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, b := range []geometry.Rect{
		geometry.NewRect(geometry.V(0, 0), geometry.V(inf, inf)),
		geometry.NewRect(geometry.V(-inf, 0), geometry.V(inf, 10)),
		geometry.NewRect(geometry.V(0, 0), geometry.V(nan, 10)),
	} {
		var c Cells
		returnsWithin(t, fmt.Sprintf("NewCells(%v)", b), func() { c = NewCells(b, 1) })
		if nx, ny := c.Dims(); nx != 1 || ny != 1 {
			t.Errorf("NewCells(%v) has %d×%d cells, want 1×1", b, nx, ny)
		}
	}
	if c := NewCells(bounds100(), nan); c.size <= 0 || c.nx*c.ny > 1<<20 {
		t.Errorf("NaN cell size gave size %v, %d×%d cells", c.size, c.nx, c.ny)
	}

	pts := []geometry.Vec{geometry.V(inf, 5), geometry.V(nan, nan), geometry.V(50, 50), geometry.V(-inf, -inf)}
	for _, b := range []geometry.Rect{bounds100(), geometry.NewRect(geometry.V(0, 0), geometry.V(inf, inf))} {
		g := NewGrid(b, 10)
		var p *points
		returnsWithin(t, "Rebuild with non-finite points", func() { p = rebuild(g, pts) })
		if got := p.query(g, geometry.V(50, 50), 1); len(got) != 1 || got[0] != 2 {
			t.Errorf("bounds %v: finite point query = %v, want [2]", b, got)
		}
	}
}
