package transport

import (
	"time"

	"radloc/internal/obs"
)

// clientMetrics is the client's registry wiring — one counter per
// Stats field (breaker opens come from the breaker itself via a
// CounterFunc) plus an attempt-latency histogram. These collectors
// are the client's only accounting; Stats() derives the wire struct
// from them, so the agent's SIGUSR1 dump and a scrape of the same
// registry can never disagree.
type clientMetrics struct {
	delivered, acceptedByServer         *obs.Counter
	duplicateByServer, rejectedByServer *obs.Counter
	dropped, attempts, retries          *obs.Counter
	backpressure429, retryAfterHonored  *obs.Counter
	serverErrors, netErrors             *obs.Counter
	breakerShortCircuits, oversized413  *obs.Counter
	redirects, rediscoveries            *obs.Counter
	attemptSeconds                      *obs.Histogram
}

// newClientMetrics registers the delivery counters on r (nil gets a
// private registry) and wires the breaker's trip count in as a
// CounterFunc so it needs no mirroring.
func newClientMetrics(r *obs.Registry, breaker *Breaker) *clientMetrics {
	r = obs.Or(r)
	r.CounterFunc("radloc_agent_breaker_opens_total",
		"Circuit-breaker trips (closed to open transitions).",
		func() uint64 { return breaker.Opens() })
	return &clientMetrics{
		delivered: r.Counter("radloc_agent_delivered_total",
			"Readings acknowledged by a 2xx response."),
		acceptedByServer: r.Counter("radloc_agent_accepted_by_server_total",
			"Delivered readings the server accounted as accepted."),
		duplicateByServer: r.Counter("radloc_agent_duplicate_by_server_total",
			"Delivered readings the server suppressed as redelivery."),
		rejectedByServer: r.Counter("radloc_agent_rejected_by_server_total",
			"Delivered readings the server refused for cause."),
		dropped: r.Counter("radloc_agent_dropped_total",
			"Readings given up on: attempts exhausted or a permanent 4xx refusal."),
		attempts: r.Counter("radloc_agent_attempts_total",
			"HTTP delivery requests issued."),
		retries: r.Counter("radloc_agent_retries_total",
			"Delivery requests after the first per batch."),
		backpressure429: r.Counter("radloc_agent_backpressure_429_total",
			"429 responses received (server shedding load)."),
		retryAfterHonored: r.Counter("radloc_agent_retry_after_honored_total",
			"429/503 responses whose Retry-After hint the client slept on."),
		serverErrors: r.Counter("radloc_agent_server_errors_total",
			"5xx responses received."),
		netErrors: r.Counter("radloc_agent_net_errors_total",
			"Transport-level request failures (dial, reset, dropped response)."),
		breakerShortCircuits: r.Counter("radloc_agent_breaker_short_circuits_total",
			"Delivery attempts refused locally while the breaker was open."),
		oversized413: r.Counter("radloc_agent_oversized_413_total",
			"413 responses received (client halves the batch and re-sends)."),
		redirects: r.Counter("radloc_agent_redirects_total",
			"307/308 responses followed to a new endpoint (zone ownership moved)."),
		rediscoveries: r.Counter("radloc_agent_rediscoveries_total",
			"Endpoint moves learned from an alternate node's routing table after the configured endpoint went dark."),
		attemptSeconds: r.Histogram("radloc_agent_attempt_seconds",
			"Wall-clock seconds per HTTP delivery attempt, success or not.", nil),
	}
}

// observeAttempt records one attempt's wall-clock latency.
func (m *clientMetrics) observeAttempt(d time.Duration) {
	m.attemptSeconds.Observe(d.Seconds())
}

// registerSpoolMetrics exposes the spool's occupancy and shed count on
// r as gauge/counter functions that read the spool's own bookkeeping
// under its lock at scrape time.
func registerSpoolMetrics(r *obs.Registry, s *Spool) {
	r.GaugeFunc("radloc_agent_spool_pending",
		"Undelivered readings held in the on-disk spool.",
		func() float64 { return float64(s.Pending()) })
	r.GaugeFunc("radloc_agent_spool_acked",
		"Spool acknowledgement cursor: readings below it are known delivered.",
		func() float64 { return float64(s.Acked()) })
	r.GaugeFunc("radloc_agent_spool_bytes",
		"On-disk payload bytes held by the spool's WAL segments.",
		func() float64 { return float64(s.SizeBytes()) })
	r.CounterFunc("radloc_agent_spool_shed_total",
		"Readings discarded by a spool bound: newest refused at the pending bound, oldest segments dropped at the byte bound.",
		func() uint64 { return s.Shed() })
}
