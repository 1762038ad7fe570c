package failover

import "radloc/internal/obs"

// promoterMetrics instruments one Promoter.
type promoterMetrics struct {
	peerUpGauge *obs.GaugeFamily
	probes      *obs.Counter
	probeFails  *obs.Counter
	degraded    *obs.Counter
	deaths      *obs.Counter
	promotions  *obs.Counter
	refusals    *obs.Counter
}

// newPromoterMetrics registers the promoter's collectors on r.
func newPromoterMetrics(r *obs.Registry) *promoterMetrics {
	return &promoterMetrics{
		peerUpGauge: r.GaugeFamily("radloc_failover_peer_up",
			"1 while the peer answers probes (any HTTP response counts), 0 once declared dead.", "peer"),
		probes: r.Counter("radloc_failover_probes_total",
			"Failure-detector probes sent to peers."),
		probeFails: r.Counter("radloc_failover_probe_failures_total",
			"Probes that got no HTTP response at all (transport failure or timeout)."),
		degraded: r.Counter("radloc_failover_degraded_misses_total",
			"Probes answered 503 with X-Radloc-Storage: degraded — a peer alive on the wire but refusing writes, counted as a miss."),
		deaths: r.Counter("radloc_failover_peer_deaths_total",
			"Peers declared dead: suspicion threshold and hold-down window both exceeded."),
		promotions: r.Counter("radloc_failover_promotions_total",
			"Unattended standby self-promotions performed after a peer death."),
		refusals: r.Counter("radloc_failover_refusals_total",
			"Promotions refused because replication lag exceeded the configured bound."),
	}
}

// peerUp refreshes a peer's liveness gauge.
func (m *promoterMetrics) peerUp(peer string, up bool) {
	v := 0.0
	if up {
		v = 1.0
	}
	m.peerUpGauge.With(peer).Set(v)
}
