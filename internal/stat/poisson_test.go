package stat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPoissonLogPMFKnownValues(t *testing.T) {
	tests := []struct {
		name   string
		k      int
		lambda float64
		want   float64 // P(K=k), linear scale
	}{
		{"k0-l1", 0, 1, math.Exp(-1)},
		{"k1-l1", 1, 1, math.Exp(-1)},
		{"k2-l3", 2, 3, 9.0 / 2 * math.Exp(-3)},
		{"k5-l5", 5, 5, math.Pow(5, 5) / 120 * math.Exp(-5)},
		{"k0-l0", 0, 0, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := math.Exp(PoissonLogPMF(tt.k, tt.lambda))
			if !almostEq(got, tt.want, 1e-12*math.Max(1, tt.want)) {
				t.Errorf("exp(PoissonLogPMF(%d, %v)) = %v, want %v", tt.k, tt.lambda, got, tt.want)
			}
		})
	}
}

func TestPoissonLogPMFEdgeCases(t *testing.T) {
	if got := PoissonLogPMF(-1, 5); !math.IsInf(got, -1) {
		t.Errorf("negative k: %v, want -Inf", got)
	}
	if got := PoissonLogPMF(3, 0); !math.IsInf(got, -1) {
		t.Errorf("k>0, lambda=0: %v, want -Inf", got)
	}
	if got := PoissonLogPMF(3, math.NaN()); !math.IsInf(got, -1) {
		t.Errorf("NaN lambda: %v, want -Inf", got)
	}
	if got := PoissonLogPMF(3, -2); !math.IsInf(got, -1) {
		t.Errorf("negative lambda: %v, want -Inf", got)
	}
	// Large counts must not overflow.
	if got := PoissonLogPMF(1_000_000, 1_000_000); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("large k log-pmf = %v, want finite", got)
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.5, 5, 50} {
		var sum float64
		for k := 0; k < 1000; k++ {
			sum += math.Exp(PoissonLogPMF(k, lambda))
		}
		if !almostEq(sum, 1, 1e-9) {
			t.Errorf("lambda=%v: pmf sum = %v, want 1", lambda, sum)
		}
	}
}

// Property: the Poisson mode is at floor(lambda), i.e. pmf(floor(λ)) ≥
// pmf(k) for all k in a window.
func TestPoissonModeProperty(t *testing.T) {
	f := func(l uint8) bool {
		lambda := float64(l%100) + 0.5
		mode := int(math.Floor(lambda))
		pm := PoissonLogPMF(mode, lambda)
		for k := 0; k < 200; k++ {
			if PoissonLogPMF(k, lambda) > pm+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInformationCriteria(t *testing.T) {
	if got := AIC(3, -10); !almostEq(got, 26, 1e-12) {
		t.Errorf("AIC = %v, want 26", got)
	}
	if got := BIC(3, 100, -10); !almostEq(got, 3*math.Log(100)+20, 1e-12) {
		t.Errorf("BIC = %v", got)
	}
}

// TestLogFactorialMatchesLgamma demands bit-identity between the
// table and the Lgamma fallback across the table boundary — the
// property that lets PoissonLogPMF switch between them freely without
// perturbing the particle filter's deterministic trace.
func TestLogFactorialMatchesLgamma(t *testing.T) {
	ks := []int{0, 1, 2, 5, 17, 100, 1000, 4094, 4095, 4096, 4097, 10000}
	for _, k := range ks {
		want, _ := math.Lgamma(float64(k) + 1)
		if got := LogFactorial(k); got != want {
			t.Errorf("LogFactorial(%d) = %v, want exactly Lgamma(%d) = %v", k, got, k+1, want)
		}
	}
	if got := LogFactorial(-1); !math.IsInf(got, 1) {
		t.Errorf("LogFactorial(-1) = %v, want +Inf", got)
	}
	// Spot-check known values: log(0!) = 0, log(5!) = log(120).
	if got := LogFactorial(0); got != 0 {
		t.Errorf("LogFactorial(0) = %v, want 0", got)
	}
	if got, want := LogFactorial(5), math.Log(120); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogFactorial(5) = %v, want log(120) = %v", got, want)
	}
}
