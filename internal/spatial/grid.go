// Package spatial provides a uniform-grid index over 2-D points for the
// fusion-range queries at the heart of the particle filter: "which
// particles lie within distance d of sensor S?".
//
// The index stores integer item IDs; callers map IDs back to their own
// records. Rebuild cost is O(n), query cost is proportional to the
// number of cells the query disc overlaps plus the number of hits —
// far cheaper than the O(n) scan a naive filter performs per
// measurement once particles have concentrated.
package spatial

import (
	"math"
	"math/bits"

	"radloc/internal/geometry"
)

// Grid is a uniform spatial hash over a rectangular region. The zero
// value is not usable; construct with NewGrid.
type Grid struct {
	bounds   geometry.Rect
	cellSize float64
	nx, ny   int
	cells    [][]int32
	pos      []geometry.Vec // item id → position
	slotOf   []int32        // item id → index within its cell's bucket, for O(1) Move
	hitBuf   []uint64       // WithinRadiusSorted hit bitset
}

// NewGrid creates an index over bounds with approximately the given
// cell size. cellSize is clamped so the grid has at least one and at
// most 1<<20 cells.
func NewGrid(bounds geometry.Rect, cellSize float64) *Grid {
	cellSize, nx, ny := gridDims(bounds, cellSize)
	return &Grid{
		bounds:   bounds,
		cellSize: cellSize,
		nx:       nx,
		ny:       ny,
		cells:    make([][]int32, nx*ny),
	}
}

// gridDims resolves the effective cell size and grid dimensions for
// the given bounds: the cell size is defaulted from the extent when
// non-positive and grown until the cell count stays bounded. The
// sizing arithmetic stays in float64 so absurd inputs cannot overflow
// int.
func gridDims(bounds geometry.Rect, cellSize float64) (float64, int, int) {
	if cellSize <= 0 {
		cellSize = math.Max(bounds.Width(), bounds.Height()) / 16
	}
	if cellSize <= 0 {
		cellSize = 1
	}
	const maxCells = 1 << 20
	dims := func(cs float64) (int, int) {
		fx := math.Ceil(bounds.Width()/cs) + 1
		fy := math.Ceil(bounds.Height()/cs) + 1
		fx = math.Max(1, math.Min(fx, maxCells))
		fy = math.Max(1, math.Min(fy, maxCells))
		return int(fx), int(fy)
	}
	nx, ny := dims(cellSize)
	for float64(nx)*float64(ny) > maxCells {
		cellSize *= 2
		nx, ny = dims(cellSize)
	}
	return cellSize, nx, ny
}

// Rebuild replaces the index contents with the given positions; item i
// is positions[i]. Positions outside the bounds are clamped into the
// border cells, so no point is ever lost.
func (g *Grid) Rebuild(positions []geometry.Vec) {
	for i := range g.cells {
		g.cells[i] = g.cells[i][:0]
	}
	g.pos = append(g.pos[:0], positions...)
	if cap(g.slotOf) < len(positions) {
		g.slotOf = make([]int32, len(positions))
	}
	g.slotOf = g.slotOf[:len(positions)]
	for i, p := range positions {
		c := g.cellIndex(p)
		g.slotOf[i] = int32(len(g.cells[c]))
		g.cells[c] = append(g.cells[c], int32(i))
	}
}

// Move updates item id's position in place — the allocation-free
// alternative to a full Rebuild when only a few items changed, e.g.
// the particles a fusion disc selected. The old cell is recomputed
// from the stored position and the item's slot in its bucket is
// tracked, so a move is O(1): if the item stays in its cell it is one
// store; otherwise it is swap-removed from the old cell's bucket (the
// bucket's last item takes its slot) and appended to the new one. id
// must be a valid index from the last Rebuild.
//
// A moved item's position within its bucket — and therefore the order
// WithinRadius reports IDs in — depends on the move history, not just
// the final positions. Callers that need an order independent of how
// the index got here must sort the query result.
func (g *Grid) Move(id int, p geometry.Vec) {
	oldC := g.cellIndex(g.pos[id])
	newC := g.cellIndex(p)
	g.pos[id] = p
	if oldC == newC {
		return
	}
	bucket := g.cells[oldC]
	slot := g.slotOf[id]
	last := bucket[len(bucket)-1]
	bucket[slot] = last
	g.slotOf[last] = slot
	g.cells[oldC] = bucket[:len(bucket)-1]
	g.slotOf[id] = int32(len(g.cells[newC]))
	g.cells[newC] = append(g.cells[newC], int32(id))
}

// Reset re-dimensions the grid for new bounds and cell size, reusing
// the existing bucket storage where possible, and empties it. It is
// the allocation-free (steady-state) alternative to NewGrid for
// callers that index fresh point sets of similar extent every round;
// follow it with Rebuild.
func (g *Grid) Reset(bounds geometry.Rect, cellSize float64) {
	g.bounds = bounds
	g.cellSize, g.nx, g.ny = gridDims(bounds, cellSize)
	want := g.nx * g.ny
	if cap(g.cells) < want {
		// Preserve the old buckets' capacity: move them into the grown
		// slice so steady-state Rebuild stays allocation-free.
		grown := make([][]int32, want)
		copy(grown, g.cells[:cap(g.cells)])
		g.cells = grown
	}
	g.cells = g.cells[:cap(g.cells)][:want]
	for i := range g.cells {
		g.cells[i] = g.cells[i][:0]
	}
	g.pos = g.pos[:0]
	g.slotOf = g.slotOf[:0]
}

// Len returns the number of indexed items.
func (g *Grid) Len() int { return len(g.pos) }

// CellSize returns the effective cell size.
func (g *Grid) CellSize() float64 { return g.cellSize }

// WithinRadius appends to dst the IDs of all items within radius r of
// center and returns the extended slice. Pass a reused dst to avoid
// allocation.
func (g *Grid) WithinRadius(center geometry.Vec, r float64, dst []int) []int {
	if r < 0 {
		return dst
	}
	r2 := r * r
	x0, y0 := g.cellCoords(geometry.V(center.X-r, center.Y-r))
	x1, y1 := g.cellCoords(geometry.V(center.X+r, center.Y+r))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range g.cells[cy*g.nx+cx] {
				if g.pos[id].Dist2(center) <= r2 {
					dst = append(dst, int(id))
				}
			}
		}
	}
	return dst
}

// WithinRadiusSorted is WithinRadius with the appended IDs in
// ascending order, independent of bucket order — and therefore of the
// Move history (see Move). It marks hits in an internal bitset and
// emits set bits in index order, costing O(hits + items/64) on top of
// the cell walk; callers whose results feed deterministic state (e.g.
// the particle filter's fusion-range selection) use this form.
func (g *Grid) WithinRadiusSorted(center geometry.Vec, r float64, dst []int) []int {
	if r < 0 {
		return dst
	}
	words := (len(g.pos) + 63) / 64
	if cap(g.hitBuf) < words {
		g.hitBuf = make([]uint64, words)
	}
	hits := g.hitBuf[:words]
	for i := range hits {
		hits[i] = 0
	}
	r2 := r * r
	x0, y0 := g.cellCoords(geometry.V(center.X-r, center.Y-r))
	x1, y1 := g.cellCoords(geometry.V(center.X+r, center.Y+r))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range g.cells[cy*g.nx+cx] {
				if g.pos[id].Dist2(center) <= r2 {
					hits[id>>6] |= 1 << (uint(id) & 63)
				}
			}
		}
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

// CountWithinRadius returns the number of items within radius r of
// center without materializing the ID list.
func (g *Grid) CountWithinRadius(center geometry.Vec, r float64) int {
	if r < 0 {
		return 0
	}
	r2 := r * r
	x0, y0 := g.cellCoords(geometry.V(center.X-r, center.Y-r))
	x1, y1 := g.cellCoords(geometry.V(center.X+r, center.Y+r))
	n := 0
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range g.cells[cy*g.nx+cx] {
				if g.pos[id].Dist2(center) <= r2 {
					n++
				}
			}
		}
	}
	return n
}

func (g *Grid) cellCoords(p geometry.Vec) (int, int) {
	cx := int((p.X - g.bounds.Min.X) / g.cellSize)
	cy := int((p.Y - g.bounds.Min.Y) / g.cellSize)
	cx = clampInt(cx, 0, g.nx-1)
	cy = clampInt(cy, 0, g.ny-1)
	return cx, cy
}

func (g *Grid) cellIndex(p geometry.Vec) int {
	cx, cy := g.cellCoords(p)
	return cy*g.nx + cx
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
