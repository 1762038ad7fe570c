package fusion

import (
	"math"
	"sort"

	"radloc/internal/diagnose"
	"radloc/internal/sensor"
)

// HealthStatus classifies a sensor's standing with the engine's health
// monitor.
type HealthStatus int

// Health states.
const (
	// Healthy sensors' readings are folded into the filter.
	Healthy HealthStatus = iota
	// Quarantined sensors' readings are scored but NOT folded into the
	// filter; a probation streak of plausible readings re-admits them.
	Quarantined
)

// String implements fmt.Stringer.
func (s HealthStatus) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	default:
		return "unknown"
	}
}

// HealthConfig tunes the per-sensor health monitor. The monitor scores
// every reading against the filter's posterior-predictive expectation
// (the free-space CPM of the current estimates, via the same residual
// machinery as internal/diagnose): readings whose standardized residual
// keeps an implausibility streak of QuarantineAfter quarantine
// the sensor — its data is then scored but no longer trusted — and a
// probation streak of ProbationGood plausible readings re-admits it.
// The zero value enables the monitor with the defaults below.
type HealthConfig struct {
	// Disabled turns the monitor off: every reading is trusted, as in
	// the paper's original fusion model.
	Disabled bool
	// ZThreshold is the |z| at or above which a reading is implausible
	// (default 5; generous next to diagnose's 3 because streaming
	// estimates are noisier than converged ones).
	ZThreshold float64
	// QuarantineAfter is the implausibility streak at which a sensor is
	// quarantined (default 6). The streak grows by one per implausible
	// reading and decays by one per plausible reading, so only
	// persistently lying sensors reach it.
	QuarantineAfter int
	// ProbationGood is the number of consecutive plausible readings a
	// quarantined sensor must deliver to be re-admitted (default 12).
	ProbationGood int
	// Warmup is the number of readings per sensor ingested before
	// scoring starts, giving the filter time to converge (default 5).
	Warmup int
}

// healthRelSlack inflates the predictive variance with a
// multiplicative model-uncertainty term, Var = λ + (healthRelSlack·λ)²,
// so sensors right next to a source (whose λ is steeply sensitive to
// small estimate errors) are not falsely flagged while the filter
// converges.
const healthRelSlack = 0.2

func (c HealthConfig) withDefaults() HealthConfig {
	if c.ZThreshold <= 0 {
		c.ZThreshold = 5
	}
	if c.QuarantineAfter <= 0 {
		c.QuarantineAfter = 6
	}
	if c.ProbationGood <= 0 {
		c.ProbationGood = 12
	}
	if c.Warmup <= 0 {
		c.Warmup = 5
	}
	return c
}

// sensorHealth is the engine's mutable per-sensor record.
type sensorHealth struct {
	id          int
	status      HealthStatus
	badStreak   int     // leaky implausibility streak while healthy
	goodStreak  int     // consecutive plausible readings while quarantined
	lastZ       float64 // most recent standardized residual (NaN before scoring)
	seen        uint64  // readings received (any outcome)
	dropped     uint64  // readings withheld from the filter while quarantined
	quarantines int     // times the sensor entered quarantine
}

// SensorHealth is the externally visible form of one sensor's health.
type SensorHealth struct {
	SensorID    int          // sensor this record describes
	Status      HealthStatus // current health verdict
	LastZ       float64      // NaN until the monitor has scored a reading
	Seen        uint64       // readings received (any outcome)
	Dropped     uint64       // readings withheld from the filter while quarantined
	Quarantines int          // times the sensor entered quarantine
}

// admit scores one reading and reports whether it should be
// folded into the filter.
func (e *Engine) admit(h *sensorHealth, sen sensor.Sensor, cpm int) bool {
	h.seen++
	if e.hcfg.Disabled {
		return true
	}
	// Scoring needs a posterior to predict from: wait for the first
	// estimate refresh and a per-sensor warmup.
	if e.met.refreshes.Value() == 0 || h.seen <= uint64(e.hcfg.Warmup) {
		return h.status == Healthy
	}
	z := diagnose.ResidualZInflated(sen, cpm, e.predSources, healthRelSlack)
	h.lastZ = z
	implausible := math.Abs(z) >= e.hcfg.ZThreshold
	switch h.status {
	case Healthy:
		if implausible {
			h.badStreak++
			if h.badStreak >= e.hcfg.QuarantineAfter {
				h.status = Quarantined
				h.goodStreak = 0
				h.quarantines++
				return false
			}
		} else if h.badStreak > 0 {
			// Leaky decay rather than a hard reset: a sensor lying hard
			// enough grows a phantom source at its own position, and
			// scored against that self-poisoned posterior the occasional
			// reading looks plausible again. A hard reset would let one
			// such blip erase the whole accumulated streak; decrementing
			// keeps persistent liars converging on quarantine while
			// genuinely intermittent sensors (alternating good and bad
			// readings) still never accumulate.
			h.badStreak--
		}
		return true
	case Quarantined:
		if implausible {
			h.goodStreak = 0
		} else {
			h.goodStreak++
			if h.goodStreak >= e.hcfg.ProbationGood {
				h.status = Healthy
				h.badStreak = 0
				return true
			}
		}
		return false
	}
	return true
}

// healthSnapshot exports the per-sensor records sorted by ID.
func (e *Engine) healthSnapshot() []SensorHealth {
	out := make([]SensorHealth, len(e.health))
	for i, h := range e.health {
		out[i] = SensorHealth{
			SensorID:    h.id,
			Status:      h.status,
			LastZ:       h.lastZ,
			Seen:        h.seen,
			Dropped:     h.dropped,
			Quarantines: h.quarantines,
		}
	}
	return out
}

// healthOf returns the health record of sensor id, or nil if id is
// not registered.
func (e *Engine) healthOf(id int) *sensorHealth {
	i := sort.Search(len(e.health), func(i int) bool { return e.health[i].id >= id })
	if i < len(e.health) && e.health[i].id == id {
		return e.health[i]
	}
	return nil
}

// QuarantinedSensors returns the IDs currently quarantined, sorted.
func (e *Engine) QuarantinedSensors() []int {
	var out []int
	for _, h := range e.health {
		if h.status == Quarantined {
			out = append(out, h.id)
		}
	}
	return out
}
