package geometry

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func square(size float64) Polygon {
	return MustPolygon([]Vec{
		V(0, 0), V(size, 0), V(size, size), V(0, size),
	})
}

// uShape builds the paper's U-shaped obstacle: an open-top channel.
// Outer footprint [0,30]×[0,20], wall thickness th.
func uShape(th float64) Polygon {
	return MustPolygon([]Vec{
		V(0, 0), V(30, 0), V(30, 20), V(30-th, 20),
		V(30-th, th), V(th, th), V(th, 20), V(0, 20),
	})
}

func TestNewPolygonErrors(t *testing.T) {
	if _, err := NewPolygon([]Vec{V(0, 0), V(1, 1)}); !errors.Is(err, ErrDegeneratePolygon) {
		t.Errorf("two-vertex ring: err = %v, want ErrDegeneratePolygon", err)
	}
	if _, err := NewPolygon([]Vec{V(0, 0), V(1, 1), V(2, 2)}); !errors.Is(err, ErrDegeneratePolygon) {
		t.Errorf("collinear ring: err = %v, want ErrDegeneratePolygon", err)
	}
}

func TestPolygonOrientationNormalized(t *testing.T) {
	cw := MustPolygon([]Vec{V(0, 0), V(0, 1), V(1, 1), V(1, 0)})
	if got := signedArea(cw.verts); got <= 0 {
		t.Errorf("clockwise input not normalized: signed area %v", got)
	}
}

func TestPolygonAreaPerimeterCentroid(t *testing.T) {
	sq := square(10)
	if got := sq.Area(); !almostEq(got, 100, 1e-9) {
		t.Errorf("Area = %v, want 100", got)
	}

	tri := MustPolygon([]Vec{V(0, 0), V(6, 0), V(0, 6)})
	if got := tri.Area(); !almostEq(got, 18, 1e-9) {
		t.Errorf("triangle Area = %v, want 18", got)
	}
}

func TestPolygonContains(t *testing.T) {
	sq := square(10)
	tests := []struct {
		name string
		p    Vec
		want bool
	}{
		{"center", V(5, 5), true},
		{"outside", V(11, 5), false},
		{"far", V(-3, -3), false},
		{"on-edge", V(10, 5), true},
		{"on-vertex", V(0, 0), true},
		{"just-inside", V(9.999, 9.999), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := sq.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestPolygonContainsConcave(t *testing.T) {
	u := uShape(2)
	tests := []struct {
		name string
		p    Vec
		want bool
	}{
		{"left-wall", V(1, 10), true},
		{"right-wall", V(29, 10), true},
		{"base", V(15, 1), true},
		{"channel-interior", V(15, 10), false}, // inside the notch, not the material
		{"above", V(15, 25), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := u.Contains(tt.p); got != tt.want {
				t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestChordLengthSquare(t *testing.T) {
	sq := square(10)
	tests := []struct {
		name string
		s    Segment
		want float64
	}{
		{"through-middle", Seg(V(-5, 5), V(15, 5)), 10},
		{"diagonal", Seg(V(-1, -1), V(11, 11)), 10 * math.Sqrt2},
		{"miss", Seg(V(-5, 20), V(15, 20)), 0},
		{"inside-only", Seg(V(2, 2), V(8, 2)), 6},
		{"start-inside", Seg(V(5, 5), V(25, 5)), 5},
		{"clip-corner", Seg(V(8, 11), V(11, 8)), math.Sqrt2},
		{"touch-vertex-only", Seg(V(9, 11), V(11, 9)), 0},
		{"along-edge", Seg(V(0, 0), V(10, 0)), 10}, // boundary is material
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := sq.ChordLength(tt.s); !almostEq(got, tt.want, 1e-6) {
				t.Errorf("ChordLength = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestChordLengthConcaveMultipleCrossings(t *testing.T) {
	u := uShape(2)
	// Horizontal ray across both walls at mid height: passes through two
	// 2-unit thick walls = 4 units of material.
	got := u.ChordLength(Seg(V(-10, 10), V(40, 10)))
	if !almostEq(got, 4, 1e-6) {
		t.Errorf("ChordLength across both walls = %v, want 4", got)
	}
	// Ray through the base only.
	got = u.ChordLength(Seg(V(15, -5), V(15, 1.5)))
	if !almostEq(got, 1.5, 1e-6) {
		t.Errorf("ChordLength into base = %v, want 1.5", got)
	}
	// Ray fully within the notch: zero material.
	got = u.ChordLength(Seg(V(5, 10), V(25, 10)))
	if !almostEq(got, 0-0, 1e-6) && got != 0 {
		t.Errorf("ChordLength in notch = %v, want 0", got)
	}
}

func TestIntersectsSegment(t *testing.T) {
	sq := square(10)
	if !sq.IntersectsSegment(Seg(V(-5, 5), V(5, 5))) {
		t.Error("entering segment should intersect")
	}
	if !sq.IntersectsSegment(Seg(V(2, 2), V(3, 3))) {
		t.Error("fully-inside segment should intersect")
	}
	if sq.IntersectsSegment(Seg(V(-5, -5), V(-1, -1))) {
		t.Error("outside segment should not intersect")
	}
}

func TestPolygonVerticesCopied(t *testing.T) {
	ring := []Vec{V(0, 0), V(4, 0), V(4, 4), V(0, 4)}
	p := MustPolygon(ring)
	ring[0] = V(99, 99)
	if p.Vertices()[0].Eq(V(99, 99)) {
		t.Error("polygon shares caller's backing array")
	}
	vs := p.Vertices()
	vs[1] = V(-1, -1)
	if p.Vertices()[1].Eq(V(-1, -1)) {
		t.Error("Vertices() exposes internal slice")
	}
}

// Property: a segment's chord length through any polygon never exceeds
// the segment length (within tolerance) and is never negative.
func TestChordLengthBoundedProperty(t *testing.T) {
	u := uShape(2)
	sq := square(10)
	f := func(ax, ay, bx, by float64) bool {
		if !finiteAll(ax, ay, bx, by) {
			return true
		}
		s := Seg(clampVec(V(ax, ay)), clampVec(V(bx, by)))
		for _, p := range []Polygon{u, sq} {
			c := p.ChordLength(s)
			if c < 0 || c > s.Length()+1e-6 || math.IsNaN(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: translating both polygon and segment leaves the chord length
// unchanged.
func TestChordLengthTranslationInvariantProperty(t *testing.T) {
	base := []Vec{V(0, 0), V(10, 0), V(10, 10), V(0, 10)}
	f := func(ax, ay, bx, by, tx, ty float64) bool {
		if !finiteAll(ax, ay, bx, by, tx, ty) {
			return true
		}
		a, b := clampSmall(V(ax, ay)), clampSmall(V(bx, by))
		d := clampSmall(V(tx, ty))
		p := MustPolygon(base)
		moved := make([]Vec, len(base))
		for i, v := range base {
			moved[i] = v.Add(d)
		}
		q := MustPolygon(moved)
		c1 := p.ChordLength(Seg(a, b))
		c2 := q.ChordLength(Seg(a.Add(d), b.Add(d)))
		return almostEq(c1, c2, 1e-6*(1+c1))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func clampSmall(v Vec) Vec {
	c := func(x float64) float64 { return math.Mod(x, 100) }
	return V(c(v.X), c(v.Y))
}
