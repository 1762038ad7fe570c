// Package radloc localizes multiple gamma-radiation point sources from
// the noisy counts-per-minute readings of a sensor network, in areas
// that may contain unknown shielding obstacles.
//
// It is a from-scratch Go reproduction of Chin, Yau & Rao, "Efficient
// and Robust Localization of Multiple Radiation Sources in Complex
// Environments" (ICDCS 2011): a hybrid particle-filter + mean-shift
// estimator whose state size is independent of the number of sources,
// that learns the number of sources from the data, and that needs no
// obstacle model. The package also ships the paper's full simulation
// substrate (radiation physics, Poisson sensors, deployment scenarios,
// unreliable delivery), the comparison baselines, and the experiment
// harness that regenerates every figure and table in the paper —
// see DESIGN.md and EXPERIMENTS.md.
//
// # Quick start
//
//	sc := radloc.ScenarioA(10 /* µCi */, false /* no obstacle */)
//	res, err := radloc.Run(sc, radloc.RunOptions{Seed: 1, Reps: 10})
//	if err != nil { ... }
//	fmt.Println(res.MeanErr) // mean localization error per time step
//
// For streaming use, drive a Localizer directly:
//
//	loc, err := radloc.NewLocalizer(radloc.LocalizerConfig(sc))
//	for each measurement m from sensor s {
//	    loc.Ingest(s, m)
//	}
//	sources := loc.Estimates()
package radloc

import (
	"radloc/internal/baseline"
	"radloc/internal/core"
	"radloc/internal/eval"
	"radloc/internal/fusion"
	"radloc/internal/geometry"
	"radloc/internal/network"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/sensor"
	"radloc/internal/sim"
)

// Geometry primitives.
type (
	// Vec is a 2-D point or displacement.
	Vec = geometry.Vec
	// Rect is an axis-aligned rectangle.
	Rect = geometry.Rect
	// Polygon is a simple polygon (obstacle footprints).
	Polygon = geometry.Polygon
)

// V is shorthand for Vec{X: x, Y: y}.
func V(x, y float64) Vec { return geometry.V(x, y) }

// NewRect returns the rectangle spanning corners a and b.
func NewRect(a, b Vec) Rect { return geometry.NewRect(a, b) }

// NewPolygon builds an obstacle footprint from a vertex ring.
func NewPolygon(verts []Vec) (Polygon, error) { return geometry.NewPolygon(verts) }

// Physical model.
type (
	// Source is a gamma point source ⟨x, y, strength⟩ (µCi).
	Source = radiation.Source
	// Obstacle is a shielding body with attenuation coefficient µ.
	Obstacle = radiation.Obstacle
	// Material names a shielding material with a published µ.
	Material = radiation.Material
)

// Shielding materials with attenuation coefficients at 1 MeV.
const (
	Lead     = radiation.Lead
	Steel    = radiation.Steel
	Concrete = radiation.Concrete
	Water    = radiation.Water
	Brick    = radiation.Brick
	Wood     = radiation.Wood
)

// ExpectedCPM returns the expected sensor reading (Eq. 4 of the paper)
// at pos for a sensor with the given counting efficiency and background
// rate, under the full ground-truth model.
func ExpectedCPM(pos Vec, efficiency, background float64, sources []Source, obstacles []Obstacle) float64 {
	return radiation.ExpectedCPM(pos, efficiency, background, sources, obstacles)
}

// Sensors and measurements.
type (
	// Sensor is a radiation counter at a known location.
	Sensor = sensor.Sensor
	// Measurement is one delivered reading.
	Measurement = sensor.Measurement
)

// GridSensors places nx×ny sensors in a uniform grid over bounds.
func GridSensors(bounds Rect, nx, ny int, efficiency, background float64) []Sensor {
	return sensor.Grid(bounds, nx, ny, efficiency, background)
}

// The localizer (the paper's algorithm).
type (
	// Localizer is the hybrid particle-filter + mean-shift estimator.
	Localizer = core.Localizer
	// Config parameterizes a Localizer.
	Config = core.Config
	// Estimate is one recovered source.
	Estimate = core.Estimate
	// Particle is one single-source hypothesis.
	Particle = core.Particle
)

// NewLocalizer builds the estimator; see Config for the parameters and
// their paper defaults.
func NewLocalizer(cfg Config) (*Localizer, error) { return core.NewLocalizer(cfg) }

// Scenarios and the experiment harness.
type (
	// Scenario is a complete experiment configuration.
	Scenario = scenario.Scenario
	// Params is a scenario's algorithm parameter block.
	Params = scenario.Params
	// RunOptions configures Run.
	RunOptions = sim.Options
	// Result aggregates the trials of one scenario run.
	Result = sim.Result
	// Trial is one simulation run's outcome.
	Trial = sim.Trial
	// StepStat is one trial's metrics at one time step.
	StepStat = sim.StepStat
)

// ScenarioA returns the paper's Scenario A (100×100 area, 36 grid
// sensors, two sources of the given strength), optionally with the
// U-shaped obstacle of Fig. 8(a).
func ScenarioA(strength float64, withObstacle bool) Scenario {
	return scenario.A(strength, withObstacle)
}

// ScenarioAThree returns the three-source Scenario A variant of Fig. 5.
func ScenarioAThree(strength float64) Scenario { return scenario.AThreeSources(strength) }

// ScenarioB returns the paper's Scenario B (260×260 area, 196 grid
// sensors, 9 sources, 3 obstacles).
func ScenarioB(withObstacles bool) Scenario { return scenario.B(withObstacles) }

// ScenarioC returns the paper's Scenario C (Scenario B with 195
// randomly placed sensors and out-of-order delivery).
func ScenarioC(withObstacles bool, layoutSeed uint64) Scenario {
	return scenario.C(withObstacles, layoutSeed)
}

// DefaultParams returns the paper's Scenario A parameter block.
func DefaultParams() Params { return scenario.DefaultParams() }

// LocalizerConfig translates a scenario's parameters into a localizer
// configuration.
func LocalizerConfig(sc Scenario) Config { return fusion.LocalizerConfig(sc) }

// Run simulates a scenario end to end and aggregates repeated trials.
func Run(sc Scenario, opts RunOptions) (Result, error) { return sim.Run(sc, opts) }

// Evaluation.
type (
	// Matching associates estimates with true sources.
	Matching = eval.Matching
)

// Match associates estimates to sources one-to-one within radius
// (40 units in the paper) and counts false positives/negatives.
func Match(estimates []Estimate, sources []Source, radius float64) Matching {
	return eval.Match(estimates, sources, radius)
}

// Delivery plans for streaming use.
type (
	// DeliveryPlan orders measurement deliveries over time steps.
	DeliveryPlan = network.Plan
	// DeliveryEvent is one delivery.
	DeliveryEvent = network.Event
)

// InOrderDelivery has every sensor report once per step, in ID order.
func InOrderDelivery(numSensors, steps int) DeliveryPlan {
	return network.InOrder(numSensors, steps)
}

// OutOfOrderDelivery reorders deliveries with random exponential
// latency (in time-step units) and drops each message with dropProb.
func OutOfOrderDelivery(numSensors, steps int, seed uint64, meanLatency, dropProb float64) DeliveryPlan {
	return network.OutOfOrder(numSensors, steps, rng.NewNamed(seed, "radloc/delivery"), network.Options{
		MeanLatency: meanLatency,
		DropProb:    dropProb,
	})
}

// Baselines (the algorithms the paper compares against).
type (
	// Reading is a (sensor, CPM) pair consumed by the batch baselines.
	Reading = baseline.Reading
	// MLEConfig configures the joint maximum-likelihood baseline.
	MLEConfig = baseline.MLEConfig
	// MLEResult is the MLE baseline's selected model.
	MLEResult = baseline.MLEResult
	// GridConfig configures the grid-decomposition baseline.
	GridConfig = baseline.GridConfig
	// GridResult is the grid baseline's recovered field.
	GridResult = baseline.GridResult
	// SingleConfig configures the single-source baselines.
	SingleConfig = baseline.SingleConfig
)

// Model-selection criteria for BaselineMLE.
const (
	AIC = baseline.AIC
	BIC = baseline.BIC
)

// BaselineMLE jointly fits K = 0..KMax sources by maximum likelihood
// and selects K with an information criterion — the approach of the
// algorithms the paper improves upon.
func BaselineMLE(readings []Reading, cfg MLEConfig, seed uint64) (MLEResult, error) {
	return baseline.MLE(readings, cfg, rng.NewNamed(seed, "radloc/baseline-mle"))
}

// BaselineGrid recovers a per-cell strength field by sparse
// Richardson–Lucy deconvolution (the discretized convex-program
// approach of the paper's reference [16]).
func BaselineGrid(readings []Reading, cfg GridConfig) (GridResult, error) {
	return baseline.GridDecompose(readings, cfg)
}

// BaselineMoE localizes a single source by fusing per-triple log-ratio
// estimates with the mean-of-estimators method.
func BaselineMoE(readings []Reading, cfg SingleConfig, seed uint64) (Source, error) {
	return baseline.MoE(readings, cfg, rng.NewNamed(seed, "radloc/baseline-moe"))
}

// BaselineITP localizes a single source by iterative-pruning fusion.
func BaselineITP(readings []Reading, cfg SingleConfig, seed uint64) (Source, error) {
	return baseline.ITP(readings, cfg, rng.NewNamed(seed, "radloc/baseline-itp"))
}

// BaselineSingleMLE fits exactly one source by maximum likelihood.
func BaselineSingleMLE(readings []Reading, cfg SingleConfig, seed uint64) (Source, error) {
	return baseline.SingleMLE(readings, cfg, rng.NewNamed(seed, "radloc/baseline-smle"))
}
