package baseline

import (
	"errors"
	"math"
	"sort"

	"radloc/internal/geometry"
	"radloc/internal/optimize"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/stat"
)

// ErrTooFewSensors is returned when a single-source method has fewer
// than three usable sensors.
var ErrTooFewSensors = errors.New("baseline: need at least three sensors with signal")

// The triple-fusion estimators' fixed settings.
const (
	// maxTriples bounds how many sensor triples MoE and ITP sample.
	maxTriples = 200
	// itpPruneFraction is the fraction of triple estimates ITP
	// discards per round, over itpRounds rounds.
	itpPruneFraction = 0.2
	itpRounds        = 5
)

// SingleConfig configures the single-source estimators.
type SingleConfig struct {
	// Bounds constrains position estimates.
	Bounds geometry.Rect
	// StrengthMax bounds the strength estimate (default 1000 µCi).
	StrengthMax float64
}

func (c SingleConfig) withDefaults() SingleConfig {
	if c.StrengthMax == 0 {
		c.StrengthMax = 1000
	}
	return c
}

// SingleMLE fits one source to the readings by maximum likelihood — the
// classic estimator of Howse et al. [11] / Gunatilaka et al. [12].
func SingleMLE(readings []Reading, cfg SingleConfig, stream *rng.Stream) (radiation.Source, error) {
	if len(readings) == 0 {
		return radiation.Source{}, ErrNoReadings
	}
	cfg = cfg.withDefaults()
	p := optimize.Problem{
		F: func(x []float64) float64 {
			return -logLikelihood(readings, decodeSources(x))
		},
		Lower: []float64{cfg.Bounds.Min.X, cfg.Bounds.Min.Y, 0},
		Upper: []float64{cfg.Bounds.Max.X, cfg.Bounds.Max.Y, cfg.StrengthMax},
	}
	r, err := optimize.MultiStart(p, 10, stream, optimize.Options{MaxIter: 1500})
	if err != nil {
		return radiation.Source{}, err
	}
	return decodeSources(r.X)[0], nil
}

// tripleEstimate solves for one source position from three sensors'
// background-subtracted intensities using the log-ratio relations of
// Rao et al. [4]: for sensors a, b the measured ratio fixes
// (1+|x−S_b|²)/(1+|x−S_a|²), a circle in the plane; two ratios
// intersect at the source. We solve the 2-D system numerically.
func tripleEstimate(rs [3]Reading, cfg SingleConfig) (radiation.Source, bool) {
	var net [3]float64
	for i, r := range rs {
		net[i] = (float64(r.CPM) - r.Sensor.Background) / (radiation.CPMPerMicroCurie * r.Sensor.Efficiency)
		if net[i] <= 0 {
			return radiation.Source{}, false
		}
	}
	residual := func(x []float64) float64 {
		p := geometry.V(x[0], x[1])
		var res float64
		for i := 0; i < 3; i++ {
			j := (i + 1) % 3
			// log net_i − log net_j should equal
			// log(1+d_j²) − log(1+d_i²).
			lhs := math.Log(net[i]) - math.Log(net[j])
			rhs := math.Log(1+p.Dist2(rs[j].Sensor.Pos)) - math.Log(1+p.Dist2(rs[i].Sensor.Pos))
			d := lhs - rhs
			res += d * d
		}
		return res
	}
	p := optimize.Problem{
		F:     residual,
		Lower: []float64{cfg.Bounds.Min.X, cfg.Bounds.Min.Y},
		Upper: []float64{cfg.Bounds.Max.X, cfg.Bounds.Max.Y},
	}
	// Start from the intensity-weighted sensor centroid.
	var wx, wy, wsum float64
	for i, r := range rs {
		wx += net[i] * r.Sensor.Pos.X
		wy += net[i] * r.Sensor.Pos.Y
		wsum += net[i]
	}
	res, err := optimize.NelderMead(p, []float64{wx / wsum, wy / wsum}, optimize.Options{MaxIter: 600})
	if err != nil || res.F > 1e-2 {
		return radiation.Source{}, false
	}
	pos := geometry.V(res.X[0], res.X[1])
	// Strength from the three readings given the recovered position.
	var s float64
	for i, r := range rs {
		s += net[i] * (1 + pos.Dist2(r.Sensor.Pos))
	}
	return radiation.Source{Pos: pos, Strength: s / 3}, true
}

// tripleEstimates computes per-triple estimates over sampled sensor
// triples, skipping triples without clear signal.
func tripleEstimates(readings []Reading, cfg SingleConfig, stream *rng.Stream) []radiation.Source {
	// Use only sensors whose reading clears background noticeably.
	var hot []Reading
	for _, r := range readings {
		if float64(r.CPM) > r.Sensor.Background+3*math.Sqrt(r.Sensor.Background+1) {
			hot = append(hot, r)
		}
	}
	if len(hot) < 3 {
		return nil
	}
	var out []radiation.Source
	for t := 0; t < maxTriples; t++ {
		i, j, k := stream.IntN(len(hot)), stream.IntN(len(hot)), stream.IntN(len(hot))
		if i == j || j == k || i == k {
			continue
		}
		if est, ok := tripleEstimate([3]Reading{hot[i], hot[j], hot[k]}, cfg); ok {
			out = append(out, est)
		}
	}
	return out
}

// MoE is the mean-of-estimators fusion of Rao et al. [14]: localize
// with every sampled sensor triple and average the per-triple results.
func MoE(readings []Reading, cfg SingleConfig, stream *rng.Stream) (radiation.Source, error) {
	ests := tripleEstimates(readings, cfg, stream)
	if len(ests) == 0 {
		return radiation.Source{}, ErrTooFewSensors
	}
	return meanSource(ests), nil
}

// ITP is the iterative-pruning fusion of Chin et al. [5]: repeatedly
// discard the triple estimates farthest from the current mean, then
// average the survivors.
func ITP(readings []Reading, cfg SingleConfig, stream *rng.Stream) (radiation.Source, error) {
	ests := tripleEstimates(readings, cfg, stream)
	if len(ests) == 0 {
		return radiation.Source{}, ErrTooFewSensors
	}
	for round := 0; round < itpRounds && len(ests) > 3; round++ {
		mean := meanSource(ests)
		sort.Slice(ests, func(a, b int) bool {
			return ests[a].Pos.Dist2(mean.Pos) < ests[b].Pos.Dist2(mean.Pos)
		})
		keep := len(ests) - int(math.Ceil(itpPruneFraction*float64(len(ests))))
		if keep < 3 {
			keep = 3
		}
		ests = ests[:keep]
	}
	return meanSource(ests), nil
}

// meanSource averages positions and strengths (median strength guards
// against the heavy per-triple strength tail).
func meanSource(ests []radiation.Source) radiation.Source {
	var x, y float64
	strengths := make([]float64, len(ests))
	for i, e := range ests {
		x += e.Pos.X
		y += e.Pos.Y
		strengths[i] = e.Strength
	}
	n := float64(len(ests))
	return radiation.Source{
		Pos:      geometry.V(x/n, y/n),
		Strength: stat.Quantile(strengths, 0.5),
	}
}
