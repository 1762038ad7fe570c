// Package diagnose runs posterior-predictive checks on a finished
// localization: given the recovered source estimates, how well do the
// predicted sensor rates explain the observed counts?
//
// The filter's likelihood deliberately assumes free space (obstacle
// parameters are unknown, Section IV), so shielded sensors read LESS
// than the free-space prediction of the recovered sources. The
// per-sensor standardized residuals exposed here make that mismatch
// measurable: a strongly negative residual cluster between a source and
// a sensor is the signature of an unmodeled obstacle — turning the
// paper's "we don't need to know the obstacles" into a tool that can
// point at where they are.
package diagnose

import (
	"errors"
	"math"
	"sort"

	"radloc/internal/core"
	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/sensor"
)

// Reading aggregates one sensor's observations.
type Reading struct {
	Sensor   sensor.Sensor
	TotalCPM int // summed counts over Count intervals
	Count    int // number of one-minute intervals observed
}

// Residual is one sensor's posterior-predictive check.
type Residual struct {
	SensorID int
	Pos      geometry.Vec
	// Expected is the predicted mean CPM under the recovered sources
	// (free-space model); Observed is the empirical mean CPM.
	Expected float64
	Observed float64
	// Z is the standardized residual (Observed−Expected)/√(Expected/n):
	// |Z| ≳ 3 flags a sensor the model cannot explain.
	Z float64
}

// Report is the outcome of a Check.
type Report struct {
	Residuals []Residual // sorted by |Z| descending
	// RMSZ is the root-mean-square standardized residual; ≈ 1 means
	// the recovered sources explain the data at the Poisson noise
	// floor.
	RMSZ float64
	// Suspicious lists sensor IDs with |Z| ≥ the configured threshold.
	Suspicious []int
}

// ErrNoData is returned when there is nothing to check.
var ErrNoData = errors.New("diagnose: no readings")

// Check compares the observations against the estimates' free-space
// predictions. zThreshold ≤ 0 defaults to 3.
func Check(readings []Reading, estimates []core.Estimate, zThreshold float64) (Report, error) {
	if len(readings) == 0 {
		return Report{}, ErrNoData
	}
	if zThreshold <= 0 {
		zThreshold = 3
	}
	sources := Sources(estimates)

	rep := Report{Residuals: make([]Residual, 0, len(readings))}
	var sumZ2 float64
	for _, r := range readings {
		n := r.Count
		if n <= 0 {
			n = 1
		}
		expected := radiation.ExpectedCPM(r.Sensor.Pos, r.Sensor.Efficiency, r.Sensor.Background, sources, nil)
		observed := float64(r.TotalCPM) / float64(n)
		sd := math.Sqrt(math.Max(expected, 1e-9) / float64(n))
		z := (observed - expected) / sd
		rep.Residuals = append(rep.Residuals, Residual{
			SensorID: r.Sensor.ID,
			Pos:      r.Sensor.Pos,
			Expected: expected,
			Observed: observed,
			Z:        z,
		})
		sumZ2 += z * z
	}
	rep.RMSZ = math.Sqrt(sumZ2 / float64(len(rep.Residuals)))
	sort.Slice(rep.Residuals, func(a, b int) bool {
		return math.Abs(rep.Residuals[a].Z) > math.Abs(rep.Residuals[b].Z)
	})
	for _, res := range rep.Residuals {
		if math.Abs(res.Z) >= zThreshold {
			rep.Suspicious = append(rep.Suspicious, res.SensorID)
		}
	}
	return rep, nil
}

// Sources converts estimates into the hypothesized source set their
// free-space predictions are computed from.
func Sources(estimates []core.Estimate) []radiation.Source {
	out := make([]radiation.Source, len(estimates))
	for i, e := range estimates {
		out[i] = radiation.Source{Pos: e.Pos, Strength: e.Strength}
	}
	return out
}

// ResidualZInflated standardizes a single reading against the
// free-space prediction of the hypothesized sources: (observed −
// expected)/√Var, the one-reading form of Check's residual, shared with
// the fusion engine's per-sensor health monitor so streaming
// plausibility scoring and offline posterior-predictive checks agree.
// The predictive variance is inflated by a multiplicative
// model-uncertainty term, Var = λ + (relSlack·λ)²; relSlack = 0 is the
// pure-Poisson z. Sensors very close to a source see λ change steeply
// with small source-position errors, so a pure-Poisson z explodes on
// perfectly healthy readings while the filter is still converging; the
// relative slack absorbs that without masking order-of-magnitude
// faults.
func ResidualZInflated(sen sensor.Sensor, cpm int, sources []radiation.Source, relSlack float64) float64 {
	expected := radiation.ExpectedCPM(sen.Pos, sen.Efficiency, sen.Background, sources, nil)
	variance := expected + (relSlack*expected)*(relSlack*expected)
	return (float64(cpm) - expected) / math.Sqrt(math.Max(variance, 1e-9))
}

// ShadowedSensors returns the suspicious sensors with strongly NEGATIVE
// residuals — the ones reading less than the sources should produce,
// i.e. the shadow an unmodeled obstacle casts.
func (r Report) ShadowedSensors(zThreshold float64) []Residual {
	if zThreshold <= 0 {
		zThreshold = 3
	}
	var out []Residual
	for _, res := range r.Residuals {
		if res.Z <= -zThreshold {
			out = append(out, res)
		}
	}
	return out
}
