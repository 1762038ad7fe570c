package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := NewNamed(42, "measurements")
	b := NewNamed(42, "measurements")
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with identical (seed,name) diverged at draw %d", i)
		}
	}
}

func TestNamedStreamsIndependent(t *testing.T) {
	a := NewNamed(42, "alpha")
	b := NewNamed(42, "beta")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("differently-named streams coincide on %d/100 draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(7, 7)
	for i := 0; i < 1000; i++ {
		x := s.Uniform(-3, 5)
		if x < -3 || x >= 5 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(3, 9)
	const n = 200_000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := s.Normal(10, 2)
		sum += x
		sum2 += x * x
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("Normal mean = %v, want ≈10", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("Normal variance = %v, want ≈4", variance)
	}
	if got := s.Normal(5, 0); got != 5 {
		t.Errorf("sigma=0 returns %v, want mean", got)
	}
	if got := s.Normal(5, -1); got != 5 {
		t.Errorf("sigma<0 returns %v, want mean", got)
	}
}

func TestPoissonMoments(t *testing.T) {
	// Both the Knuth (small λ) and PTRS (large λ) paths must have the
	// right mean and variance (for Poisson, both equal λ).
	for _, lambda := range []float64{0.5, 4, 12, 29.5, 45, 300, 5000} {
		s := New(11, uint64(lambda*1000))
		const n = 100_000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			k := float64(s.Poisson(lambda))
			sum += k
			sum2 += k * k
		}
		mean := sum / n
		variance := sum2/n - mean*mean
		tol := 4 * math.Sqrt(lambda/n) * math.Max(1, math.Sqrt(lambda))
		if math.Abs(mean-lambda) > math.Max(tol, 0.05) {
			t.Errorf("λ=%v: mean = %v", lambda, mean)
		}
		if math.Abs(variance-lambda)/lambda > 0.1 {
			t.Errorf("λ=%v: variance = %v", lambda, variance)
		}
	}
}

func TestPoissonEdgeCases(t *testing.T) {
	s := New(1, 1)
	if got := s.Poisson(0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := s.Poisson(-3); got != 0 {
		t.Errorf("Poisson(-3) = %d, want 0", got)
	}
	if got := s.Poisson(math.NaN()); got != 0 {
		t.Errorf("Poisson(NaN) = %d, want 0", got)
	}
	if got := s.Poisson(math.Inf(1)); got != 0 {
		t.Errorf("Poisson(+Inf) = %d, want 0", got)
	}
}

func TestPoissonNeverNegative(t *testing.T) {
	s := New(5, 5)
	for _, lambda := range []float64{0.01, 1, 31, 1e4} {
		for i := 0; i < 10_000; i++ {
			if k := s.Poisson(lambda); k < 0 {
				t.Fatalf("negative Poisson draw %d at λ=%v", k, lambda)
			}
		}
	}
}

func TestExponential(t *testing.T) {
	s := New(13, 17)
	const n = 200_000
	var sum float64
	for i := 0; i < n; i++ {
		x := s.Exponential(3)
		if x < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += x
	}
	if mean := sum / n; math.Abs(mean-3) > 0.05 {
		t.Errorf("Exponential mean = %v, want ≈3", mean)
	}
	if got := s.Exponential(0); got != 0 {
		t.Errorf("Exponential(0) = %v, want 0", got)
	}
}

func TestIntN(t *testing.T) {
	s := New(9, 9)
	counts := make([]int, 5)
	for i := 0; i < 50_000; i++ {
		counts[s.IntN(5)]++
	}
	for i, c := range counts {
		if c < 8_000 || c > 12_000 {
			t.Errorf("IntN bucket %d heavily skewed: %d", i, c)
		}
	}
}
