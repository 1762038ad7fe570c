// Package stat provides the probability and summary-statistics routines
// used across the localizer: Poisson likelihoods in log space,
// quantiles, and the AIC/BIC information criteria used by the
// model-selection baseline.
package stat

import (
	"errors"
	"math"
	"sync"
)

// ErrInvalidRate is returned for non-positive or non-finite Poisson
// rates where the distribution is undefined.
var ErrInvalidRate = errors.New("stat: invalid Poisson rate")

// PoissonLogPMF returns log P(K = k) for a Poisson distribution with
// mean lambda:
//
//	log P = k·log(λ) − λ − log(k!)
//
// computed via math.Lgamma so it is stable for the large counts a
// radiation sensor reports near a strong source. k < 0 or an invalid
// lambda yields -Inf.
func PoissonLogPMF(k int, lambda float64) float64 {
	if k < 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		return math.Inf(-1)
	}
	if lambda == 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	return float64(k)*math.Log(lambda) - lambda - LogFactorial(k)
}

// logFactTableSize bounds the precomputed log-factorial table: 4096
// entries (32 KiB) cover every count a sensor plausibly reports per
// the paper's scenarios; larger k falls back to math.Lgamma.
const logFactTableSize = 4096

var (
	logFactOnce  sync.Once
	logFactTable []float64
)

// LogFactorial returns log(k!) = lgamma(k+1). Values for k <
// 4096 come from a table precomputed on first use (each entry is
// exactly math.Lgamma(k+1), so tabulated and fallback values agree
// bit-for-bit); larger k calls math.Lgamma directly. k < 0 yields
// +Inf, matching lgamma's pole at non-positive integers, so a Poisson
// log-PMF built from it is -Inf for impossible counts.
//
// The particle filter's weighting stage subtracts log(k!) once per
// *reading* — hoisted out of the per-particle loop, where the seed
// implementation paid a Lgamma call per particle.
func LogFactorial(k int) float64 {
	if k < 0 {
		return math.Inf(1)
	}
	if k < logFactTableSize {
		logFactOnce.Do(func() {
			t := make([]float64, logFactTableSize)
			for i := range t {
				t[i], _ = math.Lgamma(float64(i) + 1)
			}
			logFactTable = t
		})
		return logFactTable[k]
	}
	lg, _ := math.Lgamma(float64(k) + 1)
	return lg
}

// AIC returns Akaike's information criterion 2k − 2·logL for a model
// with k free parameters and maximized log-likelihood logL.
func AIC(k int, logL float64) float64 { return 2*float64(k) - 2*logL }

// BIC returns the Bayesian information criterion k·ln(n) − 2·logL for a
// model with k free parameters fitted to n observations.
func BIC(k, n int, logL float64) float64 {
	return float64(k)*math.Log(float64(n)) - 2*logL
}
