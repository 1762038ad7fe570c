package core

import "math"

// weightClasses holds the population's importance weights in class
// form. The selective update (Section V-E) resets each resampled subset
// to one uniform share of its prior mass, so the population carries only
// a handful of distinct weights: each particle holds the index of its
// class, and the table holds each class's weight, its log (computed once
// per class, so the weighting stage pays no math.Log per particle) and
// the number of particles in it.
//
// A class no particle is in is dead, and find reuses its slot before it
// grows the table, so in steady state the table is as long as the most
// classes ever live at once and lookups allocate nothing. After a spike
// of distinct weights (an imported state can carry one per particle),
// set compacts the table back to O(live classes).
type weightClasses struct {
	cls  []uint32  // particle → class
	w    []float64 // class → weight
	lw   []float64 // class → log(weight), −Inf for a weight ≤ 0
	refs []int32   // class → particles in it; 0 marks a dead class
	live int       // classes with refs > 0
}

// compactSlack is how many dead classes the table may hold beyond
// three times its live ones before set compacts it: enough that the
// few classes a run keeps churning never trigger a compaction.
const compactSlack = 64

// reset puts all n particles in one class of weight w.
func (t *weightClasses) reset(n int, w float64) {
	t.cls = make([]uint32, n)
	t.w, t.lw, t.refs = []float64{w}, []float64{logOf(w)}, []int32{int32(n)}
	t.live = 1
}

// weight returns particle i's weight.
func (t *weightClasses) weight(i int) float64 { return t.w[t.cls[i]] }

// logOf returns log(w), or −Inf for a weight ≤ 0.
func logOf(w float64) float64 {
	if w > 0 {
		return math.Log(w)
	}
	return math.Inf(-1)
}

// find returns the live class of weight w, bit for bit, or makes one:
// in the first dead slot, or at the end of the table when none is dead.
// A new class holds no particles until set moves some into it.
func (t *weightClasses) find(w float64) uint32 {
	bits := math.Float64bits(w)
	free := -1
	for c, v := range t.w {
		switch {
		case t.refs[c] == 0:
			if free < 0 {
				free = c
			}
		case math.Float64bits(v) == bits:
			return uint32(c)
		}
	}
	if free < 0 {
		t.w = append(t.w, w)
		t.lw = append(t.lw, logOf(w))
		t.refs = append(t.refs, 0)
		return uint32(len(t.w) - 1)
	}
	t.w[free], t.lw[free] = w, logOf(w)
	return uint32(free)
}

// set moves the particles ids into class c and compacts the table when
// dead classes dominate it. c's count rises first, so it never passes
// through zero while its own members leave and rejoin it.
func (t *weightClasses) set(ids []int32, c uint32) {
	if t.refs[c] == 0 {
		t.live++
	}
	t.refs[c] += int32(len(ids))
	for _, id := range ids {
		old := t.cls[id]
		t.cls[id] = c
		if t.refs[old]--; t.refs[old] == 0 {
			t.live--
		}
	}
	if len(t.w) > 3*t.live+compactSlack {
		t.compact()
	}
}

// compact renumbers the live classes 0, 1, … in table order, drops the
// dead ones and moves the table to arrays sized to what is left.
func (t *weightClasses) compact() {
	remap := make([]uint32, len(t.w))
	w := make([]float64, 0, t.live)
	lw := make([]float64, 0, t.live)
	refs := make([]int32, 0, t.live)
	for c, r := range t.refs {
		if r == 0 {
			continue
		}
		remap[c] = uint32(len(w))
		w = append(w, t.w[c])
		lw = append(lw, t.lw[c])
		refs = append(refs, r)
	}
	for i, c := range t.cls {
		t.cls[i] = remap[c]
	}
	t.w, t.lw, t.refs = w, lw, refs
}

// load rebuilds the classes from one weight per particle, as an
// imported state carries them: a class per distinct weight, in order of
// first appearance, in fresh arrays sized to them.
func (t *weightClasses) load(ws []float64) {
	index := make(map[uint64]uint32)
	t.w, t.lw, t.refs = nil, nil, nil
	for i, w := range ws {
		bits := math.Float64bits(w)
		c, ok := index[bits]
		if !ok {
			c = uint32(len(t.w))
			index[bits] = c
			t.w = append(t.w, w)
			t.lw = append(t.lw, logOf(w))
			t.refs = append(t.refs, 0)
		}
		t.cls[i] = c
		t.refs[c]++
	}
	t.live = len(t.w)
}
