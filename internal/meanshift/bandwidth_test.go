package meanshift

import (
	"math"
	"testing"

	"radloc/internal/rng"
)

func TestSuggestBandwidthGaussianSample(t *testing.T) {
	s := rng.New(1, 1)
	const n = 5000
	pts := make([]float64, 0, 2*n)
	ws := make([]float64, n)
	for i := 0; i < n; i++ {
		pts = append(pts, s.Normal(0, 10), s.Normal(0, 2))
		ws[i] = 1
	}
	h := SuggestBandwidth(pts, ws, 2)
	if h == nil {
		t.Fatal("nil bandwidth")
	}
	// Silverman for d=2: h_k = σ_k (4/(4n))^(1/6) = σ_k n^(-1/6).
	want0 := 10 * math.Pow(float64(n), -1.0/6)
	want1 := 2 * math.Pow(float64(n), -1.0/6)
	if math.Abs(h[0]-want0)/want0 > 0.1 {
		t.Errorf("h[0] = %v, want ≈%v", h[0], want0)
	}
	if math.Abs(h[1]-want1)/want1 > 0.1 {
		t.Errorf("h[1] = %v, want ≈%v", h[1], want1)
	}
	// Wider dimension must receive a wider bandwidth.
	if h[0] <= h[1] {
		t.Errorf("bandwidth ordering wrong: %v", h)
	}
}

func TestSuggestBandwidthWeighted(t *testing.T) {
	// Two points with all mass on one of them: effective n = 1, spread
	// dominated by the heavy point's location → floor kicks in for a
	// degenerate (single-point) sample.
	pts := []float64{0, 0, 100, 100}
	ws := []float64{1, 0}
	h := SuggestBandwidth(pts, ws, 2)
	if h == nil {
		t.Fatal("nil bandwidth")
	}
	for k, v := range h {
		if v != 1e-6 {
			t.Errorf("h[%d] = %v, want floor 1e-6 (zero spread)", k, v)
		}
	}
}

func TestSuggestBandwidthDegenerateInputs(t *testing.T) {
	if h := SuggestBandwidth(nil, nil, 2); h != nil {
		t.Errorf("empty input: %v", h)
	}
	if h := SuggestBandwidth([]float64{1, 2, 3}, []float64{1}, 2); h != nil {
		t.Errorf("ragged input: %v", h)
	}
	if h := SuggestBandwidth([]float64{1, 2}, []float64{1, 1}, 2); h != nil {
		t.Errorf("weight mismatch: %v", h)
	}
	if h := SuggestBandwidth([]float64{1, 2}, []float64{0}, 2); h != nil {
		t.Errorf("zero weights: %v", h)
	}
	if h := SuggestBandwidth([]float64{1, 2}, []float64{1}, 0); h != nil {
		t.Errorf("zero dim: %v", h)
	}
}

func TestSuggestBandwidthFeedsFindModes(t *testing.T) {
	// End to end: suggested bandwidths must be a valid Config and find
	// the two clusters.
	s := rng.New(2, 2)
	var pts, ws []float64
	pts, ws = cluster3(s, pts, ws, 400, 20, 20, 50, 2, 1)
	pts, ws = cluster3(s, pts, ws, 400, 80, 70, 120, 2, 1)
	h := SuggestBandwidth(pts, ws, 3)
	if h == nil {
		t.Fatal("nil bandwidth")
	}
	// The sample spans two clusters, so Silverman over-smooths compared
	// to per-cluster spread; still the mode count must come out right
	// after scaling down (a common practice: h/2 for multimodal data).
	for k := range h {
		h[k] /= 2
	}
	starts := []float64{20, 20, 50, 80, 70, 120}
	modes, err := newSearcher(t, Config{Bandwidth: h}).FindModes(view(3, pts, ws), starts)
	if err != nil {
		t.Fatal(err)
	}
	if len(modes) != 2 {
		t.Errorf("modes with suggested bandwidth = %d, want 2 (h=%v)", len(modes), h)
	}
}
