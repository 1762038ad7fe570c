package stat

import "testing"

func TestQuantile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10}, {1, 40}, {0.5, 25}, {1.0 / 3, 20}, {-0.5, 10}, {2, 40},
	}
	for _, tt := range tests {
		if got := Quantile(xs, tt.q); !almostEq(got, tt.want, 1e-9) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("empty Quantile = %v", got)
	}
	// Input must not be mutated.
	orig := []float64{3, 1, 2}
	Quantile(orig, 0.5)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Error("Quantile mutated its input")
	}
}
