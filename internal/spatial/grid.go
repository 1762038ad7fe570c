// Package spatial provides a uniform-grid index over 2-D points for the
// fusion-range queries at the heart of the particle filter: "which
// particles lie within distance d of sensor S?".
//
// The index stores int32 item IDs in one slab of fixed-size chunks;
// callers map IDs back to their own records. Rebuild cost is O(n), a
// Move is O(1), and query cost is proportional to the number of cells
// the query disc overlaps plus the number of items in them — far
// cheaper than the O(n) scan a naive filter performs per measurement
// once particles have concentrated. Its memory follows the occupancy,
// not the history of moves. Cells is the grid's cell geometry on its
// own, for callers that lay out their own cell-ordered storage.
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
//
// Item ids live in one slab of fixed-size chunks of chunkLen ids. Each
// cell owns a chain of chunks, filled in order, and an item count; a
// chunk a cell empties goes on a free list for the next cell that
// fills its last chunk. The chunks in use hold at most the items plus
// one partial chunk per non-empty cell, and the slab grows only when
// no chunk is free: it follows the occupancy, where per-cell buckets
// would keep each cell's peak.
type Grid struct {
	geo    Cells
	cells  []cell
	store  []int32  // the slab: chunk k is store[k*chunkLen : (k+1)*chunkLen]
	prev   []int32  // chunk → the cell's previous chunk (or next free chunk), -1 ends
	free   int32    // first free chunk, -1 when none
	cellOf []int32  // item id → its cell, for Move
	slotOf []int32  // item id → its position in store, for O(1) Move
	hitBuf []uint64 // WithinRadiusSorted hit bitset
}

// chunkLen is the number of ids one slab chunk holds: at most one
// partial chunk per non-empty cell is slack, and a cell walk reads
// whole chunks of two cache lines.
const chunkLen = 32

// cell is one grid cell's share of the slab: its last chunk (-1 when
// the cell is empty) and its item count. Item j of the cell lives in
// chunk j/chunkLen of its chain at offset j%chunkLen, so only the last
// chunk is ever partial.
type cell struct {
	tail, count int32
}

// NewGrid creates an index over bounds with approximately the given
// cell size. cellSize is clamped so the grid has at least one and at
// most 1<<20 cells.
func NewGrid(bounds geometry.Rect, cellSize float64) *Grid {
	geo := NewCells(bounds, cellSize)
	g := &Grid{geo: geo, cells: make([]cell, geo.nx*geo.ny), free: -1}
	for i := range g.cells {
		g.cells[i].tail = -1
	}
	return g
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
// the border cells, so no point is ever lost. It is a counting sort:
// each cell gets a run of adjacent chunks, filled in item order, and
// the slab is refilled from its start, keeping its capacity.
func (g *Grid) Rebuild(xs, ys []float64) {
	g.cellOf = resize(g.cellOf, len(xs))
	g.slotOf = resize(g.slotOf, len(xs))
	cells, cellOf, slotOf := g.cells, g.cellOf, g.slotOf
	for i := range cells {
		cells[i].count = 0
	}
	for i, x := range xs {
		c := int32(g.geo.Index(geometry.V(x, ys[i])))
		cellOf[i] = c
		cells[c].count++
	}
	// Lay the chunk runs out in cell order. Until the fill below, tail
	// holds a cell's first chunk and count its fill cursor.
	chunks := int32(0)
	for i := range cells {
		cl := &cells[i]
		cl.tail = chunks
		chunks += (cl.count + chunkLen - 1) / chunkLen
		cl.count = 0
	}
	g.reserve(int(chunks))
	g.store = g.store[:chunks*chunkLen]
	g.prev = g.prev[:chunks]
	g.free = -1
	store := g.store
	for i, c := range cellOf {
		cl := &cells[c]
		pos := cl.tail*chunkLen + cl.count
		store[pos] = int32(i)
		slotOf[i] = pos
		cl.count++
	}
	for i := range cells {
		cl := &cells[i]
		if cl.count == 0 {
			cl.tail = -1
			continue
		}
		first := cl.tail
		cl.tail += (cl.count - 1) / chunkLen
		g.prev[first] = -1
		for k := first + 1; k <= cl.tail; k++ {
			g.prev[k] = k - 1
		}
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
// and its position in the slab, so a move is O(1): if the item stays
// in its cell it is one comparison; otherwise it is swap-removed from
// the old cell (the cell's last item takes its slot) and appended to
// the new one. id must be a valid index from the last Rebuild.
//
// A moved item's position within its cell depends on the move history,
// not just the final positions; WithinRadiusSorted's output does not.
func (g *Grid) Move(id int, p geometry.Vec) {
	oldC := g.cellOf[id]
	newC := int32(g.geo.Index(p))
	if oldC == newC {
		return
	}
	g.remove(int32(id), oldC)
	g.add(int32(id), newC)
}

// add appends item id to cell c, starting a new chunk when the cell's
// last one is full (or the cell is empty).
func (g *Grid) add(id, c int32) {
	cl := &g.cells[c]
	off := cl.count % chunkLen
	if off == 0 {
		k := g.newChunk()
		g.prev[k] = cl.tail
		cl.tail = k
	}
	pos := cl.tail*chunkLen + off
	g.store[pos] = id
	g.cellOf[id] = c
	g.slotOf[id] = pos
	cl.count++
}

// remove takes item id out of cell c: the cell's last item moves into
// its slot, and a last chunk left empty goes on the free list.
func (g *Grid) remove(id, c int32) {
	cl := &g.cells[c]
	cl.count--
	off := cl.count % chunkLen
	last := g.store[cl.tail*chunkLen+off]
	slot := g.slotOf[id]
	g.store[slot] = last
	g.slotOf[last] = slot
	if off == 0 {
		k := cl.tail
		cl.tail = g.prev[k]
		g.prev[k] = g.free
		g.free = k
	}
}

// newChunk returns a chunk from the free list, growing the slab by one
// chunk only when the list is empty. The chunk's contents and link are
// unspecified.
func (g *Grid) newChunk() int32 {
	if k := g.free; k >= 0 {
		g.free = g.prev[k]
		return k
	}
	k := int32(len(g.prev))
	g.reserve(int(k) + 1)
	g.prev = g.prev[:k+1]
	g.store = g.store[:(k+1)*chunkLen]
	return k
}

// reserve makes the slab's capacity at least chunks chunks. When short
// it reallocates with the capacity at least doubled but capped at the
// most chunks the items can ever occupy (one partial chunk per
// non-empty cell, and no more non-empty cells than items), so the slab
// reallocates O(log n) times over a grid's life and never once it
// reaches the cap.
func (g *Grid) reserve(chunks int) {
	if cap(g.prev) >= chunks {
		return
	}
	n := len(g.cellOf)
	most := (n + (chunkLen-1)*min(len(g.cells), n)) / chunkLen
	c := max(chunks, min(2*cap(g.prev), most))
	g.store = append(make([]int32, 0, c*chunkLen), g.store...)
	g.prev = append(make([]int32, 0, c), g.prev...)
}

// WithinRadiusSorted appends to dst the IDs of all items within radius
// r of center, in ascending order, and returns the extended slice. Item
// i is at (xs[i], ys[i]): the positions the index was last rebuilt and
// moved with. The order is independent of the order within cells —
// and therefore of the Move history (see Move). It marks hits in an
// internal bitset and emits set bits in index order, costing
// O(hits + items/64) on top of the cell walk. Pass a reused dst to avoid allocation: when the
// hits do not fit, dst's capacity at least doubles, but never past
// room for every item.
func (g *Grid) WithinRadiusSorted(center geometry.Vec, r float64, xs, ys []float64, dst []int32) []int32 {
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
	store, prev := g.store, g.prev
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			cl := g.cells[cy*g.geo.nx+cx]
			m := (cl.count-1)%chunkLen + 1 // ids in the last chunk
			for k := cl.tail; k >= 0; k = prev[k] {
				for _, id := range store[k*chunkLen : k*chunkLen+m] {
					if geometry.V(xs[id], ys[id]).Dist2(center) <= r2 {
						hits[id>>6] |= 1 << (uint(id) & 63)
						count++
					}
				}
				m = chunkLen
			}
		}
	}
	if need := len(dst) + count; cap(dst) < need {
		grown := make([]int32, len(dst), min(max(need, 2*cap(dst)), len(dst)+len(g.cellOf)))
		copy(grown, dst)
		dst = grown
	}
	for w, word := range hits {
		base := w << 6
		for word != 0 {
			dst = append(dst, int32(base+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}
