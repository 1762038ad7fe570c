package geometry

import (
	"math"
	"sort"
)

// Segment is the closed line segment from A to B.
type Segment struct {
	A Vec
	B Vec
}

// Seg is shorthand for Segment{A: a, B: b}.
func Seg(a, b Vec) Segment { return Segment{A: a, B: b} }

// Length returns the Euclidean length of s.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// At returns the point A + t·(B-A); t=0 is A and t=1 is B.
func (s Segment) At(t float64) Vec { return s.A.Lerp(s.B, t) }

// ClosestParam returns the parameter t in [0,1] of the point on s
// closest to p.
func (s Segment) ClosestParam(p Vec) float64 {
	d := s.B.Sub(s.A)
	n2 := d.Norm2()
	if n2 < Eps*Eps {
		return 0
	}
	t := p.Sub(s.A).Dot(d) / n2
	return math.Max(0, math.Min(1, t))
}

// DistTo returns the distance from p to the nearest point of s.
func (s Segment) DistTo(p Vec) float64 {
	return p.Dist(s.At(s.ClosestParam(p)))
}

// Intersect computes the intersection of segments s and o.
//
// It returns the parameter t along s (0 at s.A, 1 at s.B) of the
// intersection point and ok=true when the segments properly intersect or
// touch. Collinear overlapping segments report ok=true with t of the
// overlap start nearest s.A.
func (s Segment) Intersect(o Segment) (t float64, ok bool) {
	r := s.B.Sub(s.A)
	d := o.B.Sub(o.A)
	denom := r.Cross(d)
	ao := o.A.Sub(s.A)
	if math.Abs(denom) < Eps {
		// Parallel. Overlap only if collinear.
		if math.Abs(ao.Cross(r)) > Eps {
			return 0, false
		}
		r2 := r.Norm2()
		if r2 < Eps*Eps {
			// s is a point.
			if o.DistTo(s.A) <= Eps {
				return 0, true
			}
			return 0, false
		}
		t0 := ao.Dot(r) / r2
		t1 := o.B.Sub(s.A).Dot(r) / r2
		lo, hi := math.Min(t0, t1), math.Max(t0, t1)
		if hi < -Eps || lo > 1+Eps {
			return 0, false
		}
		return math.Max(0, lo), true
	}
	t = ao.Cross(d) / denom
	u := ao.Cross(r) / denom
	if t < -Eps || t > 1+Eps || u < -Eps || u > 1+Eps {
		return 0, false
	}
	return math.Max(0, math.Min(1, t)), true
}

// clipParams returns the sorted parameters along s at which s crosses
// the boundary segments in edges, always including endpoints 0 and 1.
// Used by polygon chord computation.
func (s Segment) clipParams(edges []Segment) []float64 {
	ts := make([]float64, 0, len(edges)+2)
	ts = append(ts, 0, 1)
	for _, e := range edges {
		if t, ok := s.Intersect(e); ok {
			ts = append(ts, t)
		}
	}
	sort.Float64s(ts)
	return ts
}
