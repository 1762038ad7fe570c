// Package core implements the paper's primary contribution: the hybrid
// particle-filter + mean-shift localizer for an unknown number of
// radiation sources (Section V).
//
// One particle hypothesizes ONE source ⟨x, y, strength⟩, so the state
// dimension never grows with the source count. A measurement from
// sensor S only updates the particles within S's fusion range (Eq. 5);
// the untouched remainder keeps tracking other sources. Source
// parameters are recovered as the modes of the weighted kernel density
// over particles via mean-shift (Eq. 6–7), which simultaneously yields
// the number of sources — no a-priori K and no AIC/BIC model selection.
//
// The likelihood is obstacle-agnostic: expected sensor readings assume
// free space, because obstacle shapes and attenuation coefficients are
// unknown to the system. Obstacles only shape the true measurements.
package core

import (
	"fmt"
	"runtime"

	"radloc/internal/geometry"
	"radloc/internal/obs"
)

// Config parameterizes a Localizer. NewLocalizer rejects invalid
// configurations; zero values marked "default" are filled in.
type Config struct {
	// Bounds is the surveillance area A over which particles live.
	Bounds geometry.Rect
	// NumParticles is |P| (default 2000).
	NumParticles int
	// FusionRange is d_i of Eq. (5): a measurement from sensor S only
	// updates particles within this distance of S (default 28). Set
	// DisableFusionRange to recover the classic single-population
	// particle filter the paper's Fig. 2 shows failing with multiple
	// sources.
	FusionRange float64
	// DisableFusionRange turns the range gate off: every measurement
	// updates the whole population (the single-population baseline).
	DisableFusionRange bool

	// ResampleNoise is σ_N, the standard deviation of the zero-mean
	// Gaussian position jitter added to duplicated particles during
	// resampling (default 3).
	ResampleNoise float64
	// StrengthNoise is the jitter applied to duplicated particles'
	// strength. Default: ResampleNoise × StrengthMax / 200.
	StrengthNoise float64
	// InjectionFrac is the fraction of resampled particles replaced by
	// fresh uniform hypotheses, keeping the filter receptive to sources
	// appearing in depleted areas (default 0.05).
	InjectionFrac float64

	// StrengthMin is the lower bound of the strength prior in µCi
	// (default 0.1).
	StrengthMin float64
	// StrengthMax is the upper bound of the strength prior in µCi
	// (default 200).
	StrengthMax float64

	// BandwidthXY is the mean-shift kernel bandwidth for the position
	// coordinates (default 4).
	BandwidthXY float64
	// BandwidthStr is the mean-shift kernel bandwidth for the strength
	// coordinate (default 30).
	BandwidthStr float64
	// ModeMassMin is the minimum fraction of total particle mass a
	// density mode must capture to be reported as a source (default
	// 0.04).
	ModeMassMin float64
	// MinSourceStrength suppresses modes whose strength estimate is
	// below this value — particles in source-free regions converge to
	// near-zero-strength hypotheses, which are not sources (default 2).
	MinSourceStrength float64
	// MaxSensorGap, when positive, suppresses modes farther than this
	// from every sensor the filter has ingested measurements from. In
	// irregular deployments (Scenario C) the area >MaxSensorGap from
	// all sensors is exactly where the strong-far/weak-near ambiguity
	// the paper describes cannot be resolved, so hypotheses there are
	// unverifiable; 0 disables the filter (grid deployments have no
	// such pockets).
	MaxSensorGap float64
	// MeanShiftStarts is the number of mean-shift start points sampled
	// from the particle population per estimation (default 192).
	MeanShiftStarts int

	// Movement is the paper's F_movement prediction hook (Section V-B):
	// selected particles are passed through it before weighting. nil
	// means static sources.
	Movement MovementModel

	// Init overrides the uniform particle initialization with a prior
	// distribution (Section V-A); see SeededPrior. nil means uniform.
	Init InitSampler

	// Workers bounds the goroutines of both worker pools: the
	// weighting stage's, which fans the particle subset out within one
	// Ingest call, and mean-shift estimation's (default
	// runtime.GOMAXPROCS(0); 1 keeps both on the calling goroutine). The
	// paper's Table I measures this parallelism. The subset is weighed
	// in fixed-size chunks whose boundaries and reduction order do not
	// depend on this value, and mean-shift's results are independent of
	// it too, so a run's output — including ExportState — is
	// bit-identical for every Workers setting; only wall-clock changes.
	// Small subsets are always weighted inline: the weighting pool only
	// engages when a chunk's work amortizes the goroutine handoff.
	Workers int

	// Seed drives all of the localizer's internal randomness (particle
	// init, resampling, jitter, injection). Runs with equal seeds and
	// equal measurement sequences are identical.
	Seed uint64

	// Metrics, when non-nil, receives the filter's runtime telemetry:
	// per-stage wall-clock histograms (radloc_filter_stage_seconds),
	// iteration counters, and population-health gauges. nil disables
	// instrumentation entirely — the hot path pays one branch and no
	// clock reads. Metrics never influence the filter's output.
	//
	// This is the one place where a nil registry means "off" rather
	// than "a private registry" (obs.Or): the filter step is the inner
	// loop of every paper experiment, and sim.Run leaves Metrics nil,
	// so those runs must not pay for clock reads they never expose.
	Metrics *obs.Registry
}

// withDefaults returns cfg with unset fields filled in.
func (c Config) withDefaults() Config {
	if c.NumParticles == 0 {
		c.NumParticles = 2000
	}
	if c.FusionRange == 0 {
		c.FusionRange = 28
	}
	if c.ResampleNoise == 0 {
		c.ResampleNoise = 3
	}
	if c.StrengthMin == 0 {
		c.StrengthMin = 0.1
	}
	if c.StrengthMax == 0 {
		c.StrengthMax = 200
	}
	if c.StrengthNoise == 0 {
		c.StrengthNoise = c.ResampleNoise * c.StrengthMax / 200
	}
	if c.InjectionFrac == 0 {
		c.InjectionFrac = 0.05
	}
	if c.BandwidthXY == 0 {
		c.BandwidthXY = 4
	}
	if c.BandwidthStr == 0 {
		c.BandwidthStr = 30
	}
	if c.ModeMassMin == 0 {
		c.ModeMassMin = 0.04
	}
	if c.MinSourceStrength == 0 {
		c.MinSourceStrength = 2
	}
	if c.MeanShiftStarts == 0 {
		c.MeanShiftStarts = 192
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// validate rejects configurations that cannot work. It runs after
// defaulting.
func (c Config) validate() error {
	if c.Bounds.Width() <= 0 || c.Bounds.Height() <= 0 {
		return fmt.Errorf("core: empty bounds %+v", c.Bounds)
	}
	if c.NumParticles < 1 {
		return fmt.Errorf("core: NumParticles = %d", c.NumParticles)
	}
	if c.FusionRange <= 0 {
		return fmt.Errorf("core: FusionRange = %v", c.FusionRange)
	}
	if c.ResampleNoise < 0 || c.StrengthNoise < 0 {
		return fmt.Errorf("core: negative resampling noise (%v, %v)", c.ResampleNoise, c.StrengthNoise)
	}
	if c.InjectionFrac < 0 || c.InjectionFrac > 1 {
		return fmt.Errorf("core: InjectionFrac = %v", c.InjectionFrac)
	}
	if c.StrengthMin <= 0 || c.StrengthMax <= c.StrengthMin {
		return fmt.Errorf("core: strength prior [%v, %v]", c.StrengthMin, c.StrengthMax)
	}
	if c.BandwidthXY <= 0 || c.BandwidthStr <= 0 {
		return fmt.Errorf("core: bandwidths (%v, %v)", c.BandwidthXY, c.BandwidthStr)
	}
	if c.ModeMassMin < 0 || c.ModeMassMin >= 1 {
		return fmt.Errorf("core: ModeMassMin = %v", c.ModeMassMin)
	}
	if c.MeanShiftStarts < 1 {
		return fmt.Errorf("core: MeanShiftStarts = %d", c.MeanShiftStarts)
	}
	if c.Workers < 1 {
		return fmt.Errorf("core: Workers = %d", c.Workers)
	}
	return nil
}
