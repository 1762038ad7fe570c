package cluster

import "radloc/internal/obs"

// nodeMetrics instruments one Node.
type nodeMetrics struct {
	lagSeconds, lagRecords *obs.GaugeFamily
	epoch, isPrimary       *obs.GaugeFamily
	ackedOffset            *obs.GaugeFamily
	pulls, pullErrors      *obs.Counter
	shipped, applied       *obs.Counter
	bootstraps             *obs.Counter
	fencedPulls            *obs.Counter
	divergenceRepairs      *obs.Counter
	divergedRecords        *obs.Counter
}

// newNodeMetrics registers the node's collectors on r.
func newNodeMetrics(r *obs.Registry) *nodeMetrics {
	return &nodeMetrics{
		lagSeconds: r.GaugeFamily("radloc_repl_lag_seconds",
			"Seconds since this standby was last caught up to its primary's WAL head.", "zone"),
		lagRecords: r.GaugeFamily("radloc_repl_lag_records",
			"Records between the primary's WAL head and this standby's applied offset.", "zone"),
		epoch: r.GaugeFamily("radloc_cluster_epoch",
			"Monotonic per-zone fencing epoch; bumped by every promotion.", "zone"),
		isPrimary: r.GaugeFamily("radloc_cluster_is_primary",
			"1 when this node owns writes for the zone, 0 when standby.", "zone"),
		ackedOffset: r.GaugeFamily("radloc_repl_acked_offset",
			"Highest WAL offset the zone's replica has durably acknowledged.", "zone"),
		pulls: r.Counter("radloc_repl_pulls_total",
			"Replication pulls attempted by this node's standby zones."),
		pullErrors: r.Counter("radloc_repl_pull_errors_total",
			"Replication pulls that failed (network, decode, or fencing)."),
		shipped: r.Counter("radloc_repl_shipped_records_total",
			"WAL records streamed out to replicas by this node."),
		applied: r.Counter("radloc_repl_applied_records_total",
			"Replicated records journaled and applied by this node."),
		bootstraps: r.Counter("radloc_repl_bootstraps_total",
			"Full state-snapshot bootstraps performed because the needed WAL suffix was pruned."),
		fencedPulls: r.Counter("radloc_repl_fenced_total",
			"Replication requests refused because of a stale epoch (split-brain fence)."),
		divergenceRepairs: r.Counter("radloc_repl_divergence_repairs_total",
			"Divergence repairs: a resurrected node quarantined an unshipped WAL suffix and re-seeded."),
		divergedRecords: r.Counter("radloc_repl_diverged_records_total",
			"WAL records moved to diverged/ quarantine during divergence repairs."),
	}
}

// roleChanged refreshes a zone's role and epoch gauges.
func (m *nodeMetrics) roleChanged(zone string, primary bool, epoch uint64) {
	v := 0.0
	if primary {
		v = 1.0
	}
	m.isPrimary.With(zone).Set(v)
	m.epoch.With(zone).Set(float64(epoch))
}

// fenced accounts one epoch-fenced refusal.
func (m *nodeMetrics) fenced() {
	m.fencedPulls.Inc()
}
