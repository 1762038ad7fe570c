package fusion

import (
	"radloc/internal/obs"
)

// engineMetrics is the engine's registry wiring. These counters ARE
// the engine's accounting — Snapshot, ExportState and /statez all
// derive their DeliveryStats from the same collectors /metrics
// renders, so the two surfaces cannot disagree. An engine built
// without Config.Metrics gets a private registry, keeping tests and
// embedded uses isolated.
type engineMetrics struct {
	ingested  *obs.Counter
	rejected  *obs.Counter
	refreshes *obs.Counter

	// replayAdopted and replaySearched split the refreshes replay ran
	// (boot recovery, standby apply) by where their estimates came
	// from: the journal or a search.
	replayAdopted, replaySearched *obs.Counter

	refreshSeconds *obs.Histogram
	estimates      *obs.Gauge
	quarantined    *obs.Gauge
	journaled      *obs.Gauge

	// Sequence-gate (transport-facing) delivery counters.
	duplicates    *obs.Counter
	outOfOrder    *obs.Counter
	buffered      *obs.Counter
	late          *obs.Counter
	gapSkips      *obs.Counter
	forcedFlushes *obs.Counter
	unsequenced   *obs.Counter
	pending       *obs.Gauge
	releaseBatch  *obs.Histogram
}

// newEngineMetrics registers the engine families on r (nil r → a
// fresh private registry, so the counters always exist).
func newEngineMetrics(r *obs.Registry) *engineMetrics {
	r = obs.Or(r)
	adopted, searched := ReplayRefreshes(r)
	return &engineMetrics{
		replayAdopted:  adopted,
		replaySearched: searched,
		ingested: r.Counter("radloc_fusion_ingested_total",
			"Measurements folded into the particle filter."),
		rejected: r.Counter("radloc_fusion_rejected_total",
			"Measurements refused for cause (unknown sensor, impossible CPM, quarantine)."),
		refreshes: r.Counter("radloc_fusion_refreshes_total",
			"Estimate refreshes completed: mean-shift passes, and on replay journaled results adopted (radloc_fusion_replay_refreshes_total splits those)."),
		refreshSeconds: r.Histogram("radloc_fusion_refresh_seconds",
			"Wall-clock seconds per estimate refresh (mean-shift + track update).", nil),
		estimates: r.Gauge("radloc_fusion_estimates",
			"Source estimates reported by the most recent refresh."),
		quarantined: r.Gauge("radloc_fusion_quarantined_sensors",
			"Sensors currently quarantined by the health monitor."),
		journaled: r.Gauge("radloc_fusion_journaled_records",
			"The engine's durable WAL offset: records appended to the write-ahead journal."),
		duplicates: r.Counter("radloc_transport_duplicates_total",
			"Readings suppressed by the sequence gate as at-least-once redelivery."),
		outOfOrder: r.Counter("radloc_transport_out_of_order_total",
			"Readings that arrived with a sequence number below the newest seen (observed reordering)."),
		buffered: r.Counter("radloc_transport_buffered_total",
			"Readings held in the reorder buffer pending their round's release."),
		late: r.Counter("radloc_transport_late_total",
			"Readings applied out of canonical order because their round had already been released."),
		gapSkips: r.Counter("radloc_transport_gap_skips_total",
			"Sequence numbers given up on — readings the transport apparently lost for good."),
		forcedFlushes: r.Counter("radloc_transport_forced_flushes_total",
			"Reorder-buffer overflows that forced releases ahead of the watermark."),
		unsequenced: r.Counter("radloc_transport_unsequenced_total",
			"Seq-0 readings that bypassed the dedup/reorder gate."),
		pending: r.Gauge("radloc_transport_reorder_pending",
			"Readings currently held in the reorder buffer."),
		releaseBatch: r.Histogram("radloc_transport_release_batch_size",
			"Readings applied per reorder-gate release.", obs.ExpBuckets(1, 2, 10)),
	}
}

// ReplayRefreshes returns the counters an engine whose Config.Metrics
// is r counts its replayed refreshes on: adopted from the journal, and
// searched because no journaled estimates followed the reading.
func ReplayRefreshes(r *obs.Registry) (adopted, searched *obs.Counter) {
	f := r.CounterFamily("radloc_fusion_replay_refreshes_total",
		"Refreshes run on replay (boot recovery and standby apply), by where their estimates came from: source=journal adopted a journaled refresh entry, source=search ran mean-shift.",
		"source")
	return f.With("journal"), f.With("search")
}

// deliveryStats assembles the wire-format DeliveryStats from the
// registry counters. Pending is filled by the caller from the gate.
func (m *engineMetrics) deliveryStats() DeliveryStats {
	return DeliveryStats{
		Duplicates:    m.duplicates.Value(),
		OutOfOrder:    m.outOfOrder.Value(),
		Buffered:      m.buffered.Value(),
		Late:          m.late.Value(),
		GapSkips:      m.gapSkips.Value(),
		ForcedFlushes: m.forcedFlushes.Value(),
		Unsequenced:   m.unsequenced.Value(),
	}
}

// restoreDelivery stores checkpointed delivery counters back into the
// registry — checkpoint recovery only.
func (m *engineMetrics) restoreDelivery(d DeliveryStats) {
	m.duplicates.Store(d.Duplicates)
	m.outOfOrder.Store(d.OutOfOrder)
	m.buffered.Store(d.Buffered)
	m.late.Store(d.Late)
	m.gapSkips.Store(d.GapSkips)
	m.forcedFlushes.Store(d.ForcedFlushes)
	m.unsequenced.Store(d.Unsequenced)
}
