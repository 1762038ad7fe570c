package radloc

import (
	"io"
	"time"

	"radloc/internal/config"
	"radloc/internal/core"
	"radloc/internal/deploy"
	"radloc/internal/detect"
	"radloc/internal/diagnose"
	"radloc/internal/eval"
	"radloc/internal/fusion"
	"radloc/internal/isotope"
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

// Detection (SPRT alarms that gate localization).
type (
	// SPRT is a per-sensor sequential presence test.
	SPRT = detect.SPRT
	// SPRTConfig parameterizes a sequential test.
	SPRTConfig = detect.Config
	// DetectionMonitor fuses per-sensor tests into a network alarm.
	DetectionMonitor = detect.Monitor
	// Decision is the state of a sequential test.
	Decision = detect.Decision
)

// Sequential-test decisions.
const (
	Undecided      = detect.Undecided
	SourcePresent  = detect.SourcePresent
	BackgroundOnly = detect.BackgroundOnly
)

// NewSPRT builds a per-sensor sequential presence test.
func NewSPRT(cfg SPRTConfig) (*SPRT, error) { return detect.NewSPRT(cfg) }

// NewDetectionMonitor builds one SPRT per sensor config; the alarm
// raises when quorum sensors decide SourcePresent.
func NewDetectionMonitor(cfgs []SPRTConfig, quorum int) (*DetectionMonitor, error) {
	return detect.NewMonitor(cfgs, quorum)
}

// Deployment utilities.

// KNearestFusionRanges derives per-sensor fusion ranges from local
// sensor density (factor × distance to the k-th nearest neighbour) —
// the paper's "within fusion range of a handful of sensors" rule for
// irregular deployments.
func KNearestFusionRanges(sensors []Sensor, k int, factor float64) ([]float64, error) {
	return deploy.KNearestRanges(sensors, k, factor)
}

// FusionRangeFunc adapts a per-sensor range table to the Config's
// FusionRangeFor hook.
func FusionRangeFunc(ranges []float64) func(sensorID int) float64 {
	return deploy.RangeFunc(ranges)
}

// CoverageStats quantifies how many sensors cover each point of the
// area under given fusion ranges.
type CoverageStats = deploy.CoverageStats

// FusionCoverage samples the bounds on a res×res lattice and reports
// covering-sensor statistics.
func FusionCoverage(sensors []Sensor, ranges []float64, bounds Rect, res int) CoverageStats {
	return deploy.Coverage(sensors, ranges, bounds, res)
}

// HexSensors places sensors on a hexagonal lattice.
func HexSensors(bounds Rect, spacing, efficiency, background float64) []Sensor {
	return deploy.HexGrid(bounds, spacing, efficiency, background)
}

// JitteredGridSensors perturbs a uniform grid by up to ±jitter per axis
// (deterministic in seed).
func JitteredGridSensors(bounds Rect, nx, ny int, jitter float64, seed uint64, efficiency, background float64) []Sensor {
	return deploy.JitteredGrid(bounds, nx, ny, jitter, rng.NewNamed(seed, "radloc/jittered-grid"), efficiency, background)
}

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
// per-step estimates: tracks confirm after ConfirmHits associations and
// retire after DropMisses consecutive misses, suppressing the transient
// false-positive flicker of raw mean-shift modes.
func NewTrackManager(cfg TrackConfig) *TrackManager { return track.NewManager(cfg) }

// SeededPrior builds a particle initializer that concentrates a
// fraction of the initial particles around the given centers (e.g. the
// sensors whose detection alarms fired) — the paper's Section V-A
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

// Nuclear data for realistic threat scenarios.
type (
	// Nuclide identifies a gamma-emitting isotope in the catalog.
	Nuclide = isotope.Isotope
	// NuclideInfo holds half-life and emission data.
	NuclideInfo = isotope.Info
)

// Catalogued isotopes from the RDD threat literature.
const (
	Cs137 = isotope.Cs137
	Co60  = isotope.Co60
	Ir192 = isotope.Ir192
	Am241 = isotope.Am241
)

// NuclideData returns an isotope's half-life and primary gamma line.
func NuclideData(n Nuclide) (NuclideInfo, error) { return isotope.Lookup(n) }

// DecayActivity returns the activity remaining after elapsed time:
// A(t) = A₀ · 2^(−t/T½).
func DecayActivity(initial float64, n Nuclide, elapsed time.Duration) (float64, error) {
	return isotope.Decay(initial, n, elapsed)
}

// AttenuationFor returns the linear attenuation coefficient of a
// material ("lead", "steel", "concrete", "water") at the isotope's
// primary line energy — the µ to give an Obstacle when the threat
// isotope is known, instead of the paper's fixed 1 MeV table.
func AttenuationFor(material string, n Nuclide) (float64, error) {
	return isotope.MuFor(material, n)
}
