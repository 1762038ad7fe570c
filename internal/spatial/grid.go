// Package spatial provides a uniform-grid index over 2-D points for the
// fusion-range queries at the heart of the particle filter: "which
// particles lie within distance d of sensor S?".
//
// The index stores integer item IDs; callers map IDs back to their own
// records. Rebuild cost is O(n), query cost is proportional to the
// number of cells the query disc overlaps plus the number of hits —
// far cheaper than the O(n) scan a naive filter performs per
// measurement once particles have concentrated. Cells is the grid's
// cell geometry on its own, for callers that lay out their own
// cell-ordered storage.
package spatial

import (
	"math"
	"math/bits"

	"radloc/internal/geometry"
)

// Grid is a uniform spatial hash over a rectangular region. The zero
// value is not usable; construct with NewGrid.
//
// The grid stores no positions: Rebuild and WithinRadiusSorted read the
// caller's coordinate arrays, and Move is told the new position.
type Grid struct {
	geo    Cells
	cells  [][]int32
	cellOf []int32  // item id → its cell, for Move
	slotOf []int32  // item id → index within its cell's bucket, for O(1) Move
	hitBuf []uint64 // WithinRadiusSorted hit bitset
}

// NewGrid creates an index over bounds with approximately the given
// cell size. cellSize is clamped so the grid has at least one and at
// most 1<<20 cells.
func NewGrid(bounds geometry.Rect, cellSize float64) *Grid {
	geo := NewCells(bounds, cellSize)
	return &Grid{geo: geo, cells: make([][]int32, geo.nx*geo.ny)}
}

// Cells is the geometry of a uniform grid of square cells over a
// rectangle: cell (cx, cy) covers [min + cx·size, min + (cx+1)·size)
// on each axis, and positions outside the rectangle clamp into the
// border cells. Cells are numbered row-major, cy·nx + cx.
//
// The methods take pointer receivers: with value receivers the
// compiler copied the struct through the stack on every call, and
// Grid.Move took about four times as long.
type Cells struct {
	min    geometry.Vec
	size   float64
	nx, ny int
}

// NewCells lays cells of approximately the given size over bounds. The
// size is defaulted from the extent when not positive and doubled until
// there are at most 1<<20 cells. The sizing arithmetic stays in float64
// so absurd inputs cannot overflow int. Bounds with a non-finite extent
// (a ±Inf or NaN corner) get a single cell: no size divides them, and
// Coords clamps every position into that cell.
func NewCells(bounds geometry.Rect, size float64) Cells {
	w, h := bounds.Width(), bounds.Height()
	if math.IsNaN(w) || math.IsInf(w, 0) || math.IsNaN(h) || math.IsInf(h, 0) {
		return Cells{min: bounds.Min, size: 1, nx: 1, ny: 1}
	}
	if !(size > 0) {
		size = math.Max(w, h) / 16
	}
	if !(size > 0) {
		size = 1
	}
	const maxCells = 1 << 20
	dims := func(cs float64) (int, int) {
		fx := math.Ceil(w/cs) + 1
		fy := math.Ceil(h/cs) + 1
		fx = math.Max(1, math.Min(fx, maxCells))
		fy = math.Max(1, math.Min(fy, maxCells))
		return int(fx), int(fy)
	}
	nx, ny := dims(size)
	for float64(nx)*float64(ny) > maxCells {
		size *= 2
		nx, ny = dims(size)
	}
	return Cells{min: bounds.Min, size: size, nx: nx, ny: ny}
}

// Dims returns the number of cell columns and rows.
func (c *Cells) Dims() (nx, ny int) { return c.nx, c.ny }

// Coords returns the column and row of the cell holding p.
func (c *Cells) Coords(p geometry.Vec) (cx, cy int) {
	cx = max(0, min(int((p.X-c.min.X)/c.size), c.nx-1))
	cy = max(0, min(int((p.Y-c.min.Y)/c.size), c.ny-1))
	return cx, cy
}

// Index returns the row-major number of the cell holding p.
func (c *Cells) Index(p geometry.Vec) int {
	cx, cy := c.Coords(p)
	return cy*c.nx + cx
}

// Rebuild replaces the index contents with the points (xs[i], ys[i]),
// item i being point i. Positions outside the bounds are clamped into
// the border cells, so no point is ever lost.
func (g *Grid) Rebuild(xs, ys []float64) {
	for i := range g.cells {
		g.cells[i] = g.cells[i][:0]
	}
	g.cellOf = resize(g.cellOf, len(xs))
	g.slotOf = resize(g.slotOf, len(xs))
	for i, x := range xs {
		c := g.geo.Index(geometry.V(x, ys[i]))
		g.cellOf[i] = int32(c)
		g.slotOf[i] = int32(len(g.cells[c]))
		g.cells[c] = append(g.cells[c], int32(i))
	}
}

// resize returns buf with length n, reallocating only when its
// capacity is short. The contents are unspecified.
func resize(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// Move re-files item id under its new position p — the allocation-free
// alternative to a full Rebuild when only a few items changed, e.g. the
// particles a fusion disc selected. The grid tracks each item's cell
// and its slot in the cell's bucket, so a move is O(1): if the item
// stays in its cell it is one comparison; otherwise it is swap-removed
// from the old cell's bucket (the bucket's last item takes its slot)
// and appended to the new one. id must be a valid index from the last
// Rebuild.
//
// A moved item's position within its bucket depends on the move
// history, not just the final positions; WithinRadiusSorted's output
// does not.
func (g *Grid) Move(id int, p geometry.Vec) {
	oldC := int(g.cellOf[id])
	newC := g.geo.Index(p)
	if oldC == newC {
		return
	}
	bucket := g.cells[oldC]
	slot := g.slotOf[id]
	last := bucket[len(bucket)-1]
	bucket[slot] = last
	g.slotOf[last] = slot
	g.cells[oldC] = bucket[:len(bucket)-1]
	g.cellOf[id] = int32(newC)
	g.slotOf[id] = int32(len(g.cells[newC]))
	g.cells[newC] = append(g.cells[newC], int32(id))
}

// WithinRadiusSorted appends to dst the IDs of all items within radius
// r of center, in ascending order, and returns the extended slice. Item
// i is at (xs[i], ys[i]): the positions the index was last rebuilt and
// moved with. The order is independent of bucket order — and therefore
// of the Move history (see Move). It marks hits in an internal bitset
// and emits set bits in index order, costing O(hits + items/64) on top
// of the cell walk. Pass a reused dst to avoid allocation: when the
// hits do not fit, dst's capacity at least doubles, but never past
// room for every item.
func (g *Grid) WithinRadiusSorted(center geometry.Vec, r float64, xs, ys []float64, dst []int) []int {
	if r < 0 {
		return dst
	}
	words := (len(g.cellOf) + 63) / 64
	if cap(g.hitBuf) < words {
		g.hitBuf = make([]uint64, words)
	}
	hits := g.hitBuf[:words]
	for i := range hits {
		hits[i] = 0
	}
	r2 := r * r
	x0, y0 := g.geo.Coords(geometry.V(center.X-r, center.Y-r))
	x1, y1 := g.geo.Coords(geometry.V(center.X+r, center.Y+r))
	count := 0
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range g.cells[cy*g.geo.nx+cx] {
				if geometry.V(xs[id], ys[id]).Dist2(center) <= r2 {
					hits[id>>6] |= 1 << (uint(id) & 63)
					count++
				}
			}
		}
	}
	if need := len(dst) + count; cap(dst) < need {
		grown := make([]int, len(dst), min(max(need, 2*cap(dst)), len(dst)+len(g.cellOf)))
		copy(grown, dst)
		dst = grown
	}
	for w, word := range hits {
		base := w << 6
		for word != 0 {
			dst = append(dst, base+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}
