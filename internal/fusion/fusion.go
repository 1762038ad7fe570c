// Package fusion wraps the localizer as a long-running fusion-center
// engine: measurements arrive from many network connections in any
// order (the deployment model of Section V — "the algorithm can
// proceed as soon as possible, without waiting for all the
// measurements"), estimates are recomputed at a bounded rate, and
// consumers read the current source picture as an immutable Snapshot.
//
// An Engine has one owner and is not safe for concurrent use: in the
// daemon that owner is a zone's single-writer event loop, which
// publishes each Snapshot for lock-free readers.
package fusion

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"radloc/internal/core"
	"radloc/internal/diagnose"
	"radloc/internal/geometry"
	"radloc/internal/obs"
	"radloc/internal/radiation"
	"radloc/internal/scenario"
	"radloc/internal/sensor"
	"radloc/internal/track"
	"radloc/internal/wal"
)

// Config assembles an Engine.
type Config struct {
	// Localizer configures the underlying filter.
	Localizer core.Config
	// Sensors is the calibrated sensor registry; measurements from
	// unknown sensor IDs are rejected.
	Sensors []sensor.Sensor
	// EstimateEvery recomputes estimates after this many ingested
	// measurements (default: one sensor round, i.e. len(Sensors)).
	EstimateEvery int
	// Tracking, when non-nil, maintains persistent tracks over the
	// periodic estimates.
	Tracking *track.Config
	// Health tunes the per-sensor health monitor; the zero value
	// enables it with defaults. Set Health.Disabled for the paper's
	// original trust-everything behavior.
	Health HealthConfig
	// Journal, when non-nil, receives every reading the ingest layer
	// accepts BEFORE it is applied to the filter (write-ahead), and
	// after a reading that makes a refresh due, that refresh's
	// estimates. A reading's append error aborts the ingest: nothing
	// unjournaled is ever folded into the posterior. A refresh entry's
	// is ignored: replay searches where one is missing.
	Journal Journal
	// ReorderWindow is the reorder buffer's watermark lag in sequence
	// rounds: a round of sequenced readings is held and released in
	// canonical order once a reading ReorderWindow rounds newer has
	// been seen, so deliveries scrambled within the window reduce to
	// the identical application order (default 4).
	ReorderWindow int
	// Metrics, when non-nil, is the registry the engine's counters live
	// on (ingest, delivery-gate, refresh timing). These collectors ARE
	// the engine's accounting — Snapshot and ExportState read them —
	// so /metrics and /statez can never disagree. nil gets a private
	// registry; the localizer's stage timings are configured separately
	// via Localizer.Metrics. Pass a zone-labeled view
	// (Registry.With("zone", name)) to distinguish engines sharing one
	// process.
	Metrics *obs.Registry
	// MaxSensors bounds the sensor registry and with it every per-sensor
	// map the engine keeps (health records, dedup cursors): one engine's
	// memory stays O(MaxSensors) no matter what IDs show up on the wire.
	// 0 means DefaultMaxSensors; registering more sensors fails with
	// ErrSensorLimit.
	MaxSensors int
}

// LocalizerConfig translates a scenario's parameter block into a core
// configuration.
func LocalizerConfig(sc scenario.Scenario) core.Config {
	return core.Config{
		Bounds:            sc.Bounds,
		NumParticles:      sc.Params.NumParticles,
		FusionRange:       sc.Params.FusionRange,
		ResampleNoise:     sc.Params.ResampleNoise,
		InjectionFrac:     sc.Params.InjectionFrac,
		StrengthMax:       sc.Params.MaxStrength,
		BandwidthXY:       sc.Params.BandwidthXY,
		BandwidthStr:      sc.Params.BandwidthStr,
		ModeMassMin:       sc.Params.ModeMassMin,
		MinSourceStrength: sc.Params.MinSourceStr,
		MaxSensorGap:      sc.Params.MaxSensorGap,
		MeanShiftStarts:   sc.Params.MeanShiftStarts,
	}
}

// ScenarioConfig is the one engine configuration every engine starts
// from: the scenario's localizer parameters, seeded with seed, over the
// scenario's sensors. Every other field is at its default; callers set
// only the fields where they differ.
func ScenarioConfig(sc scenario.Scenario, seed uint64) Config {
	cfg := Config{Localizer: LocalizerConfig(sc), Sensors: sc.Sensors}
	cfg.Localizer.Seed = seed
	return cfg
}

// Engine is the fusion center. It has one owner; it is not safe for
// concurrent use.
type Engine struct {
	loc       *core.Localizer
	sensors   map[int]sensor.Sensor
	every     int
	sinceEst  int
	ests      []core.Estimate
	tracker   *track.Manager
	trackStep int

	// met holds the engine's counters (ingested, rejected, delivery
	// gate, ...) — registry collectors are the single source of truth;
	// Snapshot/ExportState derive their numbers from them.
	met *engineMetrics

	// Health monitor state.
	hcfg        HealthConfig
	health      []*sensorHealth    // one record per sensor, sorted by sensor ID
	predSources []radiation.Source // free-space prediction set from ests

	// Durability and delivery-robustness state (see ingress.go).
	journal   Journal
	journaled uint64 // records appended to the journal (the WAL offset)
	window    int    // reorder watermark lag, in sequence rounds
	gate      *gate
}

// ErrUnknownSensor is returned for measurements from unregistered
// sensor IDs.
var ErrUnknownSensor = errors.New("fusion: unknown sensor")

// ErrBadMeasurement is returned for physically impossible readings.
var ErrBadMeasurement = errors.New("fusion: bad measurement")

// ErrQuarantined is returned for readings from sensors the health
// monitor has quarantined; the reading is scored (it counts toward
// probation) but not folded into the filter.
var ErrQuarantined = errors.New("fusion: sensor quarantined")

// ErrSensorLimit is returned when a configuration registers more
// sensors than Config.MaxSensors allows — the typed signal that the
// engine's per-sensor bookkeeping cap was hit.
var ErrSensorLimit = errors.New("fusion: sensor limit exceeded")

// MaxCPM is the physical ceiling on a single reading. Geiger–Müller
// counters saturate orders of magnitude below this; anything larger is
// a corrupt or spoofed record, not a measurement.
const MaxCPM = 10_000_000

// DefaultMaxSensors is the sensor-registry cap applied when
// Config.MaxSensors is 0 — generous for any deployment in the paper
// (Scenario B uses 196) while keeping a zone's per-sensor maps bounded.
const DefaultMaxSensors = 4096

// NewEngine builds the engine.
func NewEngine(cfg Config) (*Engine, error) {
	if len(cfg.Sensors) == 0 {
		return nil, errors.New("fusion: no sensors registered")
	}
	maxSensors := cfg.MaxSensors
	if maxSensors <= 0 {
		maxSensors = DefaultMaxSensors
	}
	if len(cfg.Sensors) > maxSensors {
		return nil, fmt.Errorf("%w: %d sensors registered, cap %d", ErrSensorLimit, len(cfg.Sensors), maxSensors)
	}
	loc, err := core.NewLocalizer(cfg.Localizer)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		loc:     loc,
		sensors: make(map[int]sensor.Sensor, len(cfg.Sensors)),
		every:   cfg.EstimateEvery,
		met:     newEngineMetrics(cfg.Metrics),
		hcfg:    cfg.Health.withDefaults(),
		health:  make([]*sensorHealth, 0, len(cfg.Sensors)),
		journal: cfg.Journal,
		window:  cfg.ReorderWindow,
		gate:    newGate(),
	}
	if e.window <= 0 {
		e.window = 4
	}
	for _, s := range cfg.Sensors {
		if _, dup := e.sensors[s.ID]; dup {
			return nil, fmt.Errorf("fusion: duplicate sensor ID %d", s.ID)
		}
		e.sensors[s.ID] = s
		e.health = append(e.health, &sensorHealth{id: s.ID, lastZ: math.NaN()})
	}
	// Every per-sensor report lists sensors in ID order; sorting once
	// here keeps the snapshot published after each batch sort-free.
	sort.Slice(e.health, func(a, b int) bool { return e.health[a].id < e.health[b].id })
	if e.every <= 0 {
		e.every = len(cfg.Sensors)
	}
	if cfg.Tracking != nil {
		e.tracker = track.NewManager(*cfg.Tracking)
	}
	return e, nil
}

// JournalError reports that the write-ahead journal refused an append
// — the reading was NOT applied and the caller still holds it. It is
// the storage layer showing through the ingest API: callers that can
// push back (the HTTP boundary, the zone mailbox) should answer "try
// again later, keep your copy" rather than "rejected", because unlike
// a malformed reading the data is fine — the disk is not.
type JournalError struct {
	// Err is the underlying storage error (ENOSPC, EIO, ...).
	Err error
}

// Error implements the error interface.
func (e *JournalError) Error() string { return "fusion: journal append: " + e.Err.Error() }

// Unwrap exposes the underlying storage error to errors.Is/As.
func (e *JournalError) Unwrap() error { return e.Err }

// journalAppend appends one accepted reading to the write-ahead
// journal, if one is configured. An error means the reading MUST NOT
// be applied: durability before visibility.
func (e *Engine) journalAppend(m Meas) error {
	if e.journal == nil {
		return nil
	}
	if err := e.journal.Append(m); err != nil {
		return &JournalError{Err: err}
	}
	e.journaled++
	e.met.journaled.Set(float64(e.journaled))
	return nil
}

// apply folds one journaled measurement into the filter and, when
// that makes a refresh due, refreshes and journals the estimates right
// after the reading.
func (e *Engine) apply(m Meas) error {
	due, err := e.fold(m)
	if due {
		e.Refresh()
		e.journalRefresh()
	}
	return err
}

// fold folds one measurement into the filter and reports whether a
// refresh is now due; the caller runs it.
func (e *Engine) fold(m Meas) (due bool, err error) {
	if m.CPM < 0 || m.CPM > MaxCPM {
		e.met.rejected.Inc()
		return false, fmt.Errorf("%w: CPM %d outside [0, %d]", ErrBadMeasurement, m.CPM, MaxCPM)
	}
	sen, ok := e.sensors[m.SensorID]
	if !ok {
		e.met.rejected.Inc()
		return false, fmt.Errorf("%w: id %d", ErrUnknownSensor, m.SensorID)
	}
	h := e.healthOf(m.SensorID)
	if !e.admit(h, sen, m.CPM) {
		h.dropped++
		return false, fmt.Errorf("%w: id %d (last |z| %.1f)", ErrQuarantined, m.SensorID, math.Abs(h.lastZ))
	}
	e.loc.Ingest(sen, m.CPM)
	e.met.ingested.Inc()
	e.sinceEst++
	return e.sinceEst >= e.every, nil
}

// Refresh recomputes estimates (and tracks) now.
func (e *Engine) Refresh() {
	t0 := time.Now()
	e.publish(e.loc.Estimates())
	e.met.refreshSeconds.Observe(time.Since(t0).Seconds())
}

// publish installs ests as the refresh's result: the prediction set,
// the tracker and the refresh accounting all follow from them.
func (e *Engine) publish(ests []core.Estimate) {
	e.sinceEst = 0
	e.ests = ests
	e.predSources = diagnose.Sources(e.ests)
	e.met.refreshes.Inc()
	if e.tracker != nil {
		e.tracker.Update(e.trackStep, e.ests)
		e.trackStep++
	}
	e.met.estimates.Set(float64(len(e.ests)))
	quarantined := 0
	for _, h := range e.health {
		if h.status == Quarantined {
			quarantined++
		}
	}
	e.met.quarantined.Set(float64(quarantined))
}

// journalRefresh journals the estimates the refresh just published, as
// the entry right after the reading that made it due. A failure is not
// the reading's, which is journaled and applied already, and all it
// costs is a search when replay reaches that reading; so it is not
// reported.
func (e *Engine) journalRefresh() {
	if e.journal == nil {
		return
	}
	ests := make([]wal.Estimate, len(e.ests))
	for i, est := range e.ests {
		ests[i] = wal.Estimate{X: est.Pos.X, Y: est.Pos.Y, Strength: est.Strength, Mass: est.Mass, Starts: est.Starts}
	}
	_ = e.journal.AppendRefresh(ests)
}

// replayRefresh runs a refresh that fell due on replay. Given the
// estimates journaled after the reading, it adopts them: the localizer
// skips the search but draws what the search would have drawn, so the
// RNG stream, the tracker and everything after match a searched
// refresh bit for bit. Without them (none fell due when the reading
// was journaled live, or the entry was lost to a crash) it searches.
func (e *Engine) replayRefresh(journaled []wal.Estimate) {
	if journaled == nil {
		e.met.replaySearched.Inc()
		e.Refresh()
		return
	}
	e.met.replayAdopted.Inc()
	e.loc.SkipEstimates()
	var ests []core.Estimate
	for _, j := range journaled {
		ests = append(ests, core.Estimate{Pos: geometry.V(j.X, j.Y), Strength: j.Strength, Mass: j.Mass, Starts: j.Starts})
	}
	e.publish(ests)
}

// Particles returns a copy of the filter's particle population.
func (e *Engine) Particles() []core.Particle { return e.loc.Particles() }

// Snapshot is the engine's externally visible state.
type Snapshot struct {
	Ingested uint64 // readings folded into the filter
	// Rejected counts readings refused as invalid: unknown sensor or
	// CPM out of range. A quarantined sensor's readings count in its
	// health record's Dropped instead, and a journal veto aborts the
	// batch without counting it here.
	Rejected  uint64
	Refreshes uint64          // estimate recomputations so far (readiness signal)
	Estimates []core.Estimate // current source estimates
	Tracks    []track.Track   // confirmed tracks; nil without tracking
	Health    []SensorHealth  // per-sensor health, sorted by sensor ID
	// Quarantined counts the sensors currently quarantined.
	Quarantined int
	// Delivery reports the sequence gate's dedup/reorder counters.
	Delivery DeliveryStats
	// Journaled is the number of records appended to the write-ahead
	// journal (0 without one) — the engine's durable WAL offset.
	Journaled uint64
}

// Snapshot returns the current source picture. The result shares no
// memory with the engine, so it may be handed to other goroutines.
func (e *Engine) Snapshot() Snapshot {
	out := Snapshot{
		Ingested:  e.met.ingested.Value(),
		Rejected:  e.met.rejected.Value(),
		Refreshes: e.met.refreshes.Value(),
		Estimates: append([]core.Estimate(nil), e.ests...),
		Health:    e.healthSnapshot(),
		Delivery:  e.met.deliveryStats(),
		Journaled: e.journaled,
	}
	out.Delivery.Pending = e.gate.heldN
	for _, h := range out.Health {
		if h.Status == Quarantined {
			out.Quarantined++
		}
	}
	if e.tracker != nil {
		out.Tracks = e.tracker.Confirmed()
	}
	return out
}
