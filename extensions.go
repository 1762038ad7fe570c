package radloc

import (
	"io"

	"radloc/internal/config"
	"radloc/internal/core"
	"radloc/internal/diagnose"
	"radloc/internal/eval"
	"radloc/internal/fusion"
	"radloc/internal/mobile"
	"radloc/internal/render"
	"radloc/internal/replay"
	"radloc/internal/rng"
	"radloc/internal/sensor"
	"radloc/internal/track"
)

// Movement models (the paper's F_movement prediction hook, Section V-B).
type (
	// MovementModel predicts a hypothesis' next state each iteration.
	MovementModel = core.MovementModel
	// RandomWalk diffuses positions with a per-iteration Gaussian.
	RandomWalk = core.RandomWalk
	// ConstantVelocity drifts positions by a fixed vector per iteration.
	ConstantVelocity = core.ConstantVelocity
)

// Deployment utilities.

// PoissonSensors places n sensors uniformly at random (deterministic in
// seed) — the paper's Scenario C placement.
func PoissonSensors(bounds Rect, n int, seed uint64, efficiency, background float64) []Sensor {
	return sensor.PoissonField(bounds, n, rng.NewNamed(seed, "radloc/poisson-field"), efficiency, background)
}

// CalibrateSensor estimates a sensor's counting efficiency from
// repeated readings with a known check source (Section III's E_i).
func CalibrateSensor(readings []int, sensorPos Vec, background float64, known Source) (float64, error) {
	return sensor.Calibrate(readings, sensorPos, background, known)
}

// Rendering.

// RenderASCII draws a scenario and particle cloud as a terminal density
// map (sources 'O', estimates 'X', sensors '+').
func RenderASCII(sc Scenario, parts []Particle, ests []Estimate) string {
	return render.ASCII(sc, parts, ests, render.ASCIIOptions{})
}

// RenderSVG draws the scenario layout (plus optional particles and
// estimates) as a standalone SVG document.
func RenderSVG(sc Scenario, parts []Particle, ests []Estimate, showParticles bool) string {
	return render.SVG(sc, parts, ests, render.SVGOptions{ShowParticles: showParticles})
}

// Track management (persistent sources over the estimate stream).
type (
	// Track is one hypothesized persistent source.
	Track = track.Track
	// TrackConfig tunes association gating, smoothing, confirmation
	// and retirement.
	TrackConfig = track.Config
	// TrackManager associates per-step estimates into tracks.
	TrackManager = track.Manager
)

// NewTrackManager creates an M-of-N track manager over the localizer's
// per-step estimates: tracks confirm after three associations and
// retire after four consecutive misses, suppressing the transient
// false-positive flicker of raw mean-shift modes.
func NewTrackManager(cfg TrackConfig) *TrackManager { return track.NewManager(cfg) }

// SeededPrior builds a particle initializer that concentrates a
// fraction of the initial particles around the given centers (e.g.
// suspected source locations) — the paper's Section V-A
// prior-knowledge initialization.
func SeededPrior(centers []Vec, sigma, seededFrac float64, bounds Rect, strengthMin, strengthMax float64) core.InitSampler {
	return core.SeededPrior(centers, sigma, seededFrac, bounds, strengthMin, strengthMax)
}

// Scenario files.

// SaveScenarioJSON renders a scenario as versioned, validated JSON.
func SaveScenarioJSON(sc Scenario) ([]byte, error) { return config.SaveScenario(sc) }

// LoadScenarioJSON parses and validates a JSON scenario.
func LoadScenarioJSON(data []byte) (Scenario, error) { return config.LoadScenario(data) }

// Mobile controlled search (after Ristic et al., the paper's ref [18]).
type (
	// MobilePlanner chooses surveyor waypoints from the particle
	// population: approach the probability mass, then orbit it for
	// parallax.
	MobilePlanner = mobile.Planner
	// MobileAvoidingPlanner wraps a MobilePlanner with A* obstacle
	// avoidance: the surveyor detours around footprints it must not
	// enter.
	MobileAvoidingPlanner = mobile.AvoidingPlanner
)

// Posterior-predictive diagnostics.
type (
	// DiagnosticReading aggregates one sensor's observations for a
	// model check.
	DiagnosticReading = diagnose.Reading
	// DiagnosticReport scores how well the recovered sources explain
	// the data; strongly negative residuals are obstacle shadows.
	DiagnosticReport = diagnose.Report
	// Residual is one sensor's standardized model residual.
	Residual = diagnose.Residual
)

// Diagnose runs the posterior-predictive check of the recovered source
// estimates against aggregated sensor observations.
func Diagnose(readings []DiagnosticReading, estimates []Estimate, zThreshold float64) (DiagnosticReport, error) {
	return diagnose.Check(readings, estimates, zThreshold)
}

// Streaming fusion engine (the core of cmd/radlocd).
type (
	// FusionEngine is a streaming localizer with one owner; it is not
	// safe for concurrent use.
	FusionEngine = fusion.Engine
	// FusionConfig assembles a FusionEngine.
	FusionConfig = fusion.Config
	// FusionSnapshot is the engine's externally visible state.
	FusionSnapshot = fusion.Snapshot
)

// NewFusionEngine builds a streaming engine over the localizer:
// readings arrive through IngestSeq or Submit in any order, estimates
// are recomputed at a bounded rate, and Snapshot returns a copy that
// may be shared. The engine has one owner — serialize every call, as
// the daemon does by running each zone's engine on one event loop.
func NewFusionEngine(cfg FusionConfig) (*FusionEngine, error) { return fusion.NewEngine(cfg) }

// Measurement streams on disk.

// RecordMeasurements writes a scenario's full measurement stream as
// newline-delimited JSON (the radlocd input format), through the
// scenario's delivery plan so out-of-order scenarios record in arrival
// order. Returns the number of records written.
func RecordMeasurements(w io.Writer, sc Scenario, seed uint64) (int, error) {
	return replay.Write(w, sc, seed)
}

// ReplayMeasurements feeds a recorded NDJSON stream into the localizer,
// resolving sensor IDs through the registry. Returns the number of
// measurements replayed.
func ReplayMeasurements(r io.Reader, registry []Sensor, loc *Localizer) (int, error) {
	return replay.Read(r, registry, loc)
}

// Operational latency metrics over per-step series.

// TimeToLock returns the first step from which the error series stays
// at or below threshold for the rest of the run, or -1.
func TimeToLock(errs []float64, threshold float64) int { return eval.TimeToLock(errs, threshold) }

// TimeToClear returns the first step from which a count series (FP or
// FN) stays at or below threshold for the rest of the run, or -1.
func TimeToClear(counts []float64, threshold float64) int {
	return eval.TimeToClear(counts, threshold)
}

// Availability returns the fraction of steps with error at or below
// threshold.
func Availability(errs []float64, threshold float64) float64 {
	return eval.Availability(errs, threshold)
}
