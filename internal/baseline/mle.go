// Package baseline implements the comparison algorithms the paper
// positions itself against (Section II):
//
//   - MLE with AIC/BIC model selection: jointly fit the parameters of K
//     hypothesized sources by maximum likelihood for K = 0..KMax and
//     pick K with an information criterion (Morelande et al. [1,2],
//     Ding & Cheng [15]). The parameter space grows as 3K, which is
//     exactly the scaling failure the paper's constant-size filter
//     avoids.
//   - Grid decomposition: discretize the area and recover a
//     non-negative per-cell strength field (Cheng & Singh [16]).
//   - Single-source estimators: per-triple log-ratio localization
//     fused by mean-of-estimators (Rao et al. [14]) or iterative
//     pruning (Chin et al. [5]). These are fast but break down with
//     multiple sources.
//
// All baselines are batch estimators: they consume a set of readings
// (sensor, observed CPM) and return source parameter estimates.
package baseline

import (
	"errors"
	"fmt"
	"math"

	"radloc/internal/geometry"
	"radloc/internal/optimize"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
	"radloc/internal/stat"
)

// Reading is one observed measurement used by the batch estimators.
type Reading struct {
	Sensor sensor.Sensor
	CPM    int
}

// ErrNoReadings is returned when an estimator receives no data.
var ErrNoReadings = errors.New("baseline: no readings")

// Criterion selects the model-selection rule for MLE.
type Criterion int

// Supported information criteria.
const (
	AIC Criterion = iota + 1
	BIC
)

// mleStrengthMax bounds the MLE's source strengths (µCi).
const mleStrengthMax = 200

// MLEConfig configures the joint maximum-likelihood estimator.
type MLEConfig struct {
	// Bounds is the search area for source positions.
	Bounds geometry.Rect
	// KMax is the largest source count considered (default 4 — the
	// paper notes algorithms of this family "do not scale beyond four
	// sources").
	KMax int
	// Criterion picks AIC or BIC (default BIC).
	Criterion Criterion
	// Starts is the number of random restarts per K (default 12).
	Starts int
}

func (c MLEConfig) withDefaults() MLEConfig {
	if c.KMax == 0 {
		c.KMax = 4
	}
	if c.Criterion == 0 {
		c.Criterion = BIC
	}
	if c.Starts == 0 {
		c.Starts = 12
	}
	return c
}

// MLEResult is the selected model.
type MLEResult struct {
	Sources   []radiation.Source
	K         int
	LogL      float64
	Criterion float64
	// PerK[k] is the best criterion value found for each candidate k
	// (diagnostic; index 0 = zero-source model).
	PerK []float64
}

// MLE jointly estimates the number of sources and their parameters by
// maximizing the Poisson log-likelihood of the readings under Eq. (4),
// selecting K with the configured information criterion.
func MLE(readings []Reading, cfg MLEConfig, stream *rng.Stream) (MLEResult, error) {
	if len(readings) == 0 {
		return MLEResult{}, ErrNoReadings
	}
	cfg = cfg.withDefaults()
	if cfg.Bounds.Width() <= 0 || cfg.Bounds.Height() <= 0 {
		return MLEResult{}, fmt.Errorf("baseline: empty MLE bounds")
	}

	best := MLEResult{K: -1, Criterion: math.Inf(1)}
	best.PerK = make([]float64, cfg.KMax+1)

	// K = 0: background-only model, no free parameters.
	logL0 := logLikelihood(readings, nil)
	crit0 := criterionValue(cfg.Criterion, 0, len(readings), logL0)
	best.PerK[0] = crit0
	best.K = 0
	best.LogL = logL0
	best.Criterion = crit0

	for k := 1; k <= cfg.KMax; k++ {
		srcs, logL, err := fitK(readings, cfg, k, stream)
		if err != nil {
			return MLEResult{}, err
		}
		crit := criterionValue(cfg.Criterion, 3*k, len(readings), logL)
		best.PerK[k] = crit
		if crit < best.Criterion {
			best.Criterion = crit
			best.K = k
			best.LogL = logL
			best.Sources = srcs
		}
	}
	return best, nil
}

// fitK maximizes the joint likelihood for exactly k sources.
func fitK(readings []Reading, cfg MLEConfig, k int, stream *rng.Stream) ([]radiation.Source, float64, error) {
	d := 3 * k
	lower := make([]float64, d)
	upper := make([]float64, d)
	for j := 0; j < k; j++ {
		lower[3*j] = cfg.Bounds.Min.X
		upper[3*j] = cfg.Bounds.Max.X
		lower[3*j+1] = cfg.Bounds.Min.Y
		upper[3*j+1] = cfg.Bounds.Max.Y
		lower[3*j+2] = 0
		upper[3*j+2] = mleStrengthMax
	}
	p := optimize.Problem{
		F: func(x []float64) float64 {
			return -logLikelihood(readings, decodeSources(x))
		},
		Lower: lower,
		Upper: upper,
	}
	r, err := optimize.MultiStart(p, cfg.Starts, stream, optimize.Options{MaxIter: 400 * d})
	if err != nil {
		return nil, 0, err
	}
	return decodeSources(r.X), -r.F, nil
}

// decodeSources unpacks a flat (x, y, s)×K parameter vector.
func decodeSources(x []float64) []radiation.Source {
	k := len(x) / 3
	out := make([]radiation.Source, k)
	for j := 0; j < k; j++ {
		out[j] = radiation.Source{
			Pos:      geometry.V(x[3*j], x[3*j+1]),
			Strength: x[3*j+2],
		}
	}
	return out
}

// logLikelihood evaluates Σ_i log Poisson(m_i | λ_i(sources)) under the
// free-space model (the baselines, like the paper's filter, do not know
// the obstacles).
func logLikelihood(readings []Reading, sources []radiation.Source) float64 {
	var ll float64
	for _, r := range readings {
		lambda := radiation.ExpectedCPM(r.Sensor.Pos, r.Sensor.Efficiency, r.Sensor.Background, sources, nil)
		ll += stat.PoissonLogPMF(r.CPM, lambda)
	}
	return ll
}

func criterionValue(c Criterion, params, n int, logL float64) float64 {
	if c == AIC {
		return stat.AIC(params, logL)
	}
	return stat.BIC(params, n, logL)
}
