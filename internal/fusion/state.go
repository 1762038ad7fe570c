package fusion

import (
	"fmt"
	"math"
	"sort"

	"radloc/internal/core"
	"radloc/internal/diagnose"
	"radloc/internal/track"
)

// EngineState is a serializable snapshot of the whole fusion engine —
// the contents of a recovery checkpoint. Together with the WAL suffix
// of readings journaled after Journaled, it reconstructs the engine
// exactly: counters, particle filter (including its RNG position),
// per-sensor health, tracker, and the sequence gate's dedup cursors.
// Reorder-buffer contents are deliberately NOT part of the state: a
// buffered reading has not been journaled yet, so it is not durable —
// the at-least-once transport redelivers it after recovery.
type EngineState struct {
	Ingested  uint64 `json:"ingested"`  // readings folded into the filter
	Rejected  uint64 `json:"rejected"`  // readings refused
	Refreshes uint64 `json:"refreshes"` // estimate recomputations so far
	SinceEst  int    `json:"sinceEst"`  // readings ingested since the last refresh
	TrackStep int    `json:"trackStep"` // tracker time steps advanced
	// Journaled is the WAL offset this state corresponds to: every
	// journaled record with index < Journaled is folded in, every
	// record ≥ Journaled must be replayed on recovery.
	Journaled uint64          `json:"journaled"`
	Estimates []core.Estimate `json:"estimates,omitempty"` // last published source estimates
	Localizer core.State      `json:"localizer"`           // particle filter state (incl. RNG position)
	Health    []HealthState   `json:"health,omitempty"`    // per-sensor health records, sorted by ID
	Tracker   *track.State    `json:"tracker,omitempty"`   // source tracker state; nil without tracking
	Seqs      []SeqCursor     `json:"seqs,omitempty"`      // sequence gate dedup cursors, sorted by ID
	// GateReleased is the reorder gate's release watermark: rounds ≤
	// it have been applied in canonical order.
	GateReleased uint64        `json:"gateReleased,omitempty"`
	Delivery     DeliveryStats `json:"delivery"` // dedup/reorder gate counters
}

// HealthState is the serializable form of one sensor's full health
// record (the streaks included — SensorHealth omits them).
type HealthState struct {
	SensorID    int      `json:"sensorId"`              // sensor this record describes
	Status      int      `json:"status"`                // HealthStatus as an integer
	BadStreak   int      `json:"badStreak,omitempty"`   // consecutive suspect readings
	GoodStreak  int      `json:"goodStreak,omitempty"`  // consecutive clean readings while quarantined
	LastZ       *float64 `json:"lastZ,omitempty"`       // nil encodes NaN (never scored)
	Seen        uint64   `json:"seen"`                  // readings received (any outcome)
	Dropped     uint64   `json:"dropped,omitempty"`     // readings withheld while quarantined
	Quarantines int      `json:"quarantines,omitempty"` // times the sensor entered quarantine
}

// SeqCursor is one sensor's dedup cursor: the highest sequence number
// consumed from it.
type SeqCursor struct {
	SensorID int    `json:"sensorId"` // sensor the cursor belongs to
	Applied  uint64 `json:"applied"`  // highest sequence number consumed
}

// ExportState captures the engine's resumable state. The reorder
// buffers are excluded (see EngineState); everything else round-trips
// exactly.
func (e *Engine) ExportState() (EngineState, error) {
	loc, err := e.loc.ExportState()
	if err != nil {
		return EngineState{}, err
	}
	st := EngineState{
		Ingested:  e.met.ingested.Value(),
		Rejected:  e.met.rejected.Value(),
		Refreshes: e.met.refreshes.Value(),
		SinceEst:  e.sinceEst,
		TrackStep: e.trackStep,
		Journaled: e.journaled,
		Estimates: append([]core.Estimate(nil), e.ests...),
		Localizer: loc,
		Delivery:  e.met.deliveryStats(),
	}
	for _, h := range e.health {
		hs := HealthState{
			SensorID:    h.id,
			Status:      int(h.status),
			BadStreak:   h.badStreak,
			GoodStreak:  h.goodStreak,
			Seen:        h.seen,
			Dropped:     h.dropped,
			Quarantines: h.quarantines,
		}
		if !math.IsNaN(h.lastZ) {
			z := h.lastZ
			hs.LastZ = &z
		}
		st.Health = append(st.Health, hs)
	}
	for id, applied := range e.gate.cursor {
		if applied > 0 {
			st.Seqs = append(st.Seqs, SeqCursor{SensorID: id, Applied: applied})
		}
	}
	sort.Slice(st.Seqs, func(a, b int) bool { return st.Seqs[a].SensorID < st.Seqs[b].SensorID })
	st.GateReleased = e.gate.released
	if e.tracker != nil {
		ts := e.tracker.ExportState()
		st.Tracker = &ts
	}
	return st, nil
}

// SetJournalOffset aligns the engine's journal-offset counter with an
// external log position — recovery bookkeeping for when the engine's
// replay count and the log's record offsets differ (a pruned prefix or
// a hole left by tail truncation). Checkpoints built after this call
// carry WAL offsets, which is what recovery replays from.
func (e *Engine) SetJournalOffset(off uint64) {
	e.journaled = off
	e.met.journaled.Set(float64(off))
}

// ImportState restores a snapshot captured by ExportState into an
// engine built with the same Config (same sensors, localizer
// parameters and tracking mode). Health records for sensors unknown
// to this engine are rejected; sensors added since the export keep
// their fresh zero records.
func (e *Engine) ImportState(st EngineState) error {
	for _, hs := range st.Health {
		if e.healthOf(hs.SensorID) == nil {
			return fmt.Errorf("fusion: state has health for unknown sensor %d", hs.SensorID)
		}
	}
	if err := e.loc.ImportState(st.Localizer); err != nil {
		return err
	}
	e.met.ingested.Store(st.Ingested)
	e.met.rejected.Store(st.Rejected)
	e.met.refreshes.Store(st.Refreshes)
	e.sinceEst = st.SinceEst
	e.trackStep = st.TrackStep
	e.journaled = st.Journaled
	e.met.journaled.Set(float64(e.journaled))
	e.ests = append(e.ests[:0], st.Estimates...)
	e.met.estimates.Set(float64(len(e.ests)))
	e.predSources = diagnose.Sources(e.ests)
	restored := st.Delivery
	restored.Pending = 0
	e.met.restoreDelivery(restored)
	e.met.pending.Set(0)
	for _, hs := range st.Health {
		h := e.healthOf(hs.SensorID)
		h.status = HealthStatus(hs.Status)
		h.badStreak = hs.BadStreak
		h.goodStreak = hs.GoodStreak
		h.lastZ = math.NaN()
		if hs.LastZ != nil {
			h.lastZ = *hs.LastZ
		}
		h.seen = hs.Seen
		h.dropped = hs.Dropped
		h.quarantines = hs.Quarantines
	}
	e.gate = newGate()
	for _, sc := range st.Seqs {
		e.gate.cursor[sc.SensorID] = sc.Applied
	}
	e.gate.released = st.GateReleased
	e.gate.maxSeq = st.GateReleased
	if e.tracker != nil && st.Tracker != nil {
		e.tracker.ImportState(*st.Tracker)
	}
	return nil
}
