package geometry

import (
	"testing"
)

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(V(5, 7), V(1, 2))
	if !r.Min.Eq(V(1, 2)) || !r.Max.Eq(V(5, 7)) {
		t.Errorf("NewRect did not normalize: %+v", r)
	}
}

func TestRectGeometry(t *testing.T) {
	r := NewRect(V(0, 0), V(4, 2))
	if got := r.Width(); !almostEq(got, 4, 1e-12) {
		t.Errorf("Width = %v", got)
	}
	if got := r.Height(); !almostEq(got, 2, 1e-12) {
		t.Errorf("Height = %v", got)
	}
}

func TestRectContains(t *testing.T) {
	r := NewRect(V(0, 0), V(10, 10))
	tests := []struct {
		p    Vec
		want bool
	}{
		{V(5, 5), true},
		{V(0, 0), true},
		{V(10, 10), true},
		{V(10.5, 5), false},
		{V(-0.5, 5), false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRectExpand(t *testing.T) {
	r := NewRect(V(2, 2), V(4, 4)).Expand(1)
	if !r.Min.Eq(V(1, 1)) || !r.Max.Eq(V(5, 5)) {
		t.Errorf("Expand = %+v", r)
	}
}

func TestRectIntersectsSegment(t *testing.T) {
	r := NewRect(V(0, 0), V(10, 10))
	tests := []struct {
		name string
		s    Segment
		want bool
	}{
		{"crossing", Seg(V(-5, 5), V(15, 5)), true},
		{"inside", Seg(V(2, 2), V(8, 8)), true},
		{"miss-above", Seg(V(-5, 12), V(15, 12)), false},
		{"touch-corner", Seg(V(-1, 11), V(1, 9)), true},
		{"vertical-miss", Seg(V(12, -5), V(12, 15)), false},
		{"endpoint-on-edge", Seg(V(10, 5), V(20, 5)), true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.IntersectsSegment(tt.s); got != tt.want {
				t.Errorf("IntersectsSegment = %v, want %v", got, tt.want)
			}
		})
	}
}
