package geometry

import "math"

// Rect is an axis-aligned rectangle spanning [Min.X, Max.X] × [Min.Y,
// Max.Y].
type Rect struct {
	Min Vec
	Max Vec
}

// NewRect returns the rectangle with the given corners, normalizing so
// Min ≤ Max componentwise.
func NewRect(a, b Vec) Rect {
	return Rect{
		Min: Vec{X: math.Min(a.X, b.X), Y: math.Min(a.Y, b.Y)},
		Max: Vec{X: math.Max(a.X, b.X), Y: math.Max(a.Y, b.Y)},
	}
}

// Width returns the x extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the y extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies in r (boundary inclusive, within Eps).
func (r Rect) Contains(p Vec) bool {
	return p.X >= r.Min.X-Eps && p.X <= r.Max.X+Eps &&
		p.Y >= r.Min.Y-Eps && p.Y <= r.Max.Y+Eps
}

// Expand returns r grown by d on every side.
func (r Rect) Expand(d float64) Rect {
	return Rect{
		Min: Vec{X: r.Min.X - d, Y: r.Min.Y - d},
		Max: Vec{X: r.Max.X + d, Y: r.Max.Y + d},
	}
}

// IntersectsSegment reports whether the segment s touches r, using the
// slab (Liang–Barsky) clip test.
func (r Rect) IntersectsSegment(s Segment) bool {
	d := s.B.Sub(s.A)
	t0, t1 := 0.0, 1.0
	clip := func(p, q float64) bool {
		if math.Abs(p) < Eps {
			return q >= -Eps
		}
		t := q / p
		if p < 0 {
			if t > t1 {
				return false
			}
			if t > t0 {
				t0 = t
			}
		} else {
			if t < t0 {
				return false
			}
			if t < t1 {
				t1 = t
			}
		}
		return true
	}
	return clip(-d.X, s.A.X-r.Min.X) &&
		clip(d.X, r.Max.X-s.A.X) &&
		clip(-d.Y, s.A.Y-r.Min.Y) &&
		clip(d.Y, r.Max.Y-s.A.Y)
}
