package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSegmentBasics(t *testing.T) {
	s := Seg(V(0, 0), V(3, 4))
	if got := s.Length(); !almostEq(got, 5, 1e-12) {
		t.Errorf("Length = %v, want 5", got)
	}
	if got := s.At(0.5); !got.Eq(V(1.5, 2)) {
		t.Errorf("At(0.5) = %v, want (1.5,2)", got)
	}
	if got := s.At(0.2); !got.Eq(V(0.6, 0.8)) {
		t.Errorf("At(0.2) = %v", got)
	}
}

func TestSegmentClosestParam(t *testing.T) {
	s := Seg(V(0, 0), V(10, 0))
	tests := []struct {
		name string
		p    Vec
		want float64
	}{
		{"interior", V(4, 3), 0.4},
		{"before-A", V(-5, 1), 0},
		{"past-B", V(20, -2), 1},
		{"on-segment", V(7, 0), 0.7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := s.ClosestParam(tt.p); !almostEq(got, tt.want, 1e-12) {
				t.Errorf("ClosestParam(%v) = %v, want %v", tt.p, got, tt.want)
			}
		})
	}
}

func TestSegmentDegenerateClosestParam(t *testing.T) {
	pt := Seg(V(2, 2), V(2, 2))
	if got := pt.ClosestParam(V(9, 9)); got != 0 {
		t.Errorf("point segment ClosestParam = %v, want 0", got)
	}
	if got := pt.DistTo(V(5, 6)); !almostEq(got, 5, 1e-12) {
		t.Errorf("point segment DistTo = %v, want 5", got)
	}
}

func TestSegmentIntersect(t *testing.T) {
	tests := []struct {
		name   string
		s, o   Segment
		wantOK bool
		wantT  float64
	}{
		{
			name:   "plain-cross",
			s:      Seg(V(0, 0), V(10, 10)),
			o:      Seg(V(0, 10), V(10, 0)),
			wantOK: true, wantT: 0.5,
		},
		{
			name:   "miss-parallel",
			s:      Seg(V(0, 0), V(10, 0)),
			o:      Seg(V(0, 1), V(10, 1)),
			wantOK: false,
		},
		{
			name:   "miss-disjoint",
			s:      Seg(V(0, 0), V(1, 0)),
			o:      Seg(V(5, -1), V(5, 1)),
			wantOK: false,
		},
		{
			name:   "touch-endpoint",
			s:      Seg(V(0, 0), V(10, 0)),
			o:      Seg(V(10, 0), V(10, 10)),
			wantOK: true, wantT: 1,
		},
		{
			name:   "collinear-overlap",
			s:      Seg(V(0, 0), V(10, 0)),
			o:      Seg(V(4, 0), V(20, 0)),
			wantOK: true, wantT: 0.4,
		},
		{
			name:   "collinear-disjoint",
			s:      Seg(V(0, 0), V(1, 0)),
			o:      Seg(V(2, 0), V(3, 0)),
			wantOK: false,
		},
		{
			name:   "t-junction",
			s:      Seg(V(0, -5), V(0, 5)),
			o:      Seg(V(-5, 0), V(0, 0)),
			wantOK: true, wantT: 0.5,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gotT, gotOK := tt.s.Intersect(tt.o)
			if gotOK != tt.wantOK {
				t.Fatalf("Intersect ok = %v, want %v", gotOK, tt.wantOK)
			}
			if gotOK && !almostEq(gotT, tt.wantT, 1e-9) {
				t.Errorf("Intersect t = %v, want %v", gotT, tt.wantT)
			}
		})
	}
}

// Property: intersection is symmetric in reporting a hit (the parameter
// differs, but the hit/miss decision must agree).
func TestSegmentIntersectSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		if !finiteAll(ax, ay, bx, by, cx, cy, dx, dy) {
			return true
		}
		s := Seg(clampVec(V(ax, ay)), clampVec(V(bx, by)))
		o := Seg(clampVec(V(cx, cy)), clampVec(V(dx, dy)))
		_, ok1 := s.Intersect(o)
		_, ok2 := o.Intersect(s)
		return ok1 == ok2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the reported intersection point lies on (or within tolerance
// of) both segments.
func TestSegmentIntersectPointOnBothProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		if !finiteAll(ax, ay, bx, by, cx, cy, dx, dy) {
			return true
		}
		s := Seg(clampVec(V(ax, ay)), clampVec(V(bx, by)))
		o := Seg(clampVec(V(cx, cy)), clampVec(V(dx, dy)))
		tt, ok := s.Intersect(o)
		if !ok {
			return true
		}
		p := s.At(tt)
		scale := 1 + s.Length() + o.Length()
		return o.DistTo(p) <= 1e-6*scale && s.DistTo(p) <= 1e-6*scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSegmentDistToNeverNegative(t *testing.T) {
	f := func(ax, ay, bx, by, px, py float64) bool {
		if !finiteAll(ax, ay, bx, by, px, py) {
			return true
		}
		s := Seg(clampVec(V(ax, ay)), clampVec(V(bx, by)))
		d := s.DistTo(clampVec(V(px, py)))
		return d >= 0 && !math.IsNaN(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
