package geometry

import (
	"errors"
	"fmt"
	"math"
)

// ErrDegeneratePolygon is returned by NewPolygon for rings with fewer
// than three vertices or near-zero area.
var ErrDegeneratePolygon = errors.New("geometry: degenerate polygon")

// Polygon is a simple (non self-intersecting) polygon given by its
// vertex ring. Orientation may be either direction; constructors
// normalize to counter-clockwise.
type Polygon struct {
	verts []Vec
	bbox  Rect
}

// NewPolygon builds a polygon from the given vertex ring. The ring is
// copied. It returns ErrDegeneratePolygon when the ring has fewer than
// three vertices or encloses (near) zero area.
func NewPolygon(verts []Vec) (Polygon, error) {
	if len(verts) < 3 {
		return Polygon{}, fmt.Errorf("%w: %d vertices", ErrDegeneratePolygon, len(verts))
	}
	vs := make([]Vec, len(verts))
	copy(vs, verts)
	if signedArea(vs) < 0 {
		reverse(vs)
	}
	p := Polygon{verts: vs, bbox: boundsOf(vs)}
	if p.Area() < Eps {
		return Polygon{}, fmt.Errorf("%w: zero area", ErrDegeneratePolygon)
	}
	return p, nil
}

// MustPolygon is like NewPolygon but panics on error. Intended for
// statically-known scenario layouts.
func MustPolygon(verts []Vec) Polygon {
	p, err := NewPolygon(verts)
	if err != nil {
		panic(err)
	}
	return p
}

// Vertices returns a copy of the polygon's vertex ring
// (counter-clockwise).
func (p Polygon) Vertices() []Vec {
	vs := make([]Vec, len(p.verts))
	copy(vs, p.verts)
	return vs
}

// Bounds returns the axis-aligned bounding box of p.
func (p Polygon) Bounds() Rect { return p.bbox }

// Area returns the enclosed area of p.
func (p Polygon) Area() float64 { return math.Abs(signedArea(p.verts)) }

// Edges returns the edge segments of p in ring order.
func (p Polygon) Edges() []Segment {
	n := len(p.verts)
	es := make([]Segment, n)
	for i := 0; i < n; i++ {
		es[i] = Segment{A: p.verts[i], B: p.verts[(i+1)%n]}
	}
	return es
}

// Contains reports whether q lies inside p or on its boundary, using
// the even-odd ray-crossing rule with an explicit boundary check.
func (p Polygon) Contains(q Vec) bool {
	if !p.bbox.Contains(q) {
		return false
	}
	n := len(p.verts)
	for i := 0; i < n; i++ {
		if (Segment{A: p.verts[i], B: p.verts[(i+1)%n]}).DistTo(q) <= Eps {
			return true
		}
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		vi, vj := p.verts[i], p.verts[j]
		if (vi.Y > q.Y) != (vj.Y > q.Y) {
			xCross := (vj.X-vi.X)*(q.Y-vi.Y)/(vj.Y-vi.Y) + vi.X
			if q.X < xCross {
				inside = !inside
			}
		}
	}
	return inside
}

// ChordLength returns the total length of s that lies inside p: the
// thickness of obstacle material a ray travelling along s traverses.
//
// The segment is cut at every boundary crossing and each resulting piece
// is classified by its midpoint, so the result is correct for concave
// polygons (e.g. the paper's U-shaped obstacle) where a single ray can
// enter and exit several times.
func (p Polygon) ChordLength(s Segment) float64 {
	if s.Length() < Eps {
		if p.Contains(s.A) {
			return 0
		}
		return 0
	}
	if !p.bbox.IntersectsSegment(s) {
		return 0
	}
	ts := s.clipParams(p.Edges())
	var total float64
	for i := 0; i+1 < len(ts); i++ {
		t0, t1 := ts[i], ts[i+1]
		if t1-t0 < Eps {
			continue
		}
		if p.Contains(s.At((t0 + t1) / 2)) {
			total += (t1 - t0) * s.Length()
		}
	}
	return total
}

// IntersectsSegment reports whether any part of s touches p (boundary
// or interior).
func (p Polygon) IntersectsSegment(s Segment) bool {
	if !p.bbox.IntersectsSegment(s) {
		return false
	}
	if p.Contains(s.A) || p.Contains(s.B) {
		return true
	}
	for _, e := range p.Edges() {
		if _, ok := s.Intersect(e); ok {
			return true
		}
	}
	return false
}

func signedArea(vs []Vec) float64 {
	var a float64
	n := len(vs)
	for i := 0; i < n; i++ {
		a += vs[i].Cross(vs[(i+1)%n])
	}
	return a / 2
}

func reverse(vs []Vec) {
	for i, j := 0, len(vs)-1; i < j; i, j = i+1, j-1 {
		vs[i], vs[j] = vs[j], vs[i]
	}
}

func boundsOf(vs []Vec) Rect {
	r := Rect{Min: vs[0], Max: vs[0]}
	for _, v := range vs[1:] {
		r.Min.X = math.Min(r.Min.X, v.X)
		r.Min.Y = math.Min(r.Min.Y, v.Y)
		r.Max.X = math.Max(r.Max.X, v.X)
		r.Max.Y = math.Max(r.Max.Y, v.Y)
	}
	return r
}
