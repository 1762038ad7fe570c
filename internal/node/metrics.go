package node

import (
	"time"

	"radloc/internal/obs"
)

// durableMetrics is the checkpointer's registry wiring. The collectors
// are the checkpointer's accounting — /statez derives its durability
// numbers from them — so the JSON and Prometheus surfaces can never
// disagree. openDurable gives a nil registry a private one, as
// everywhere else.
type durableMetrics struct {
	checkpoints       *obs.Counter
	failures          *obs.Counter
	checkpointSeconds *obs.Histogram
	lastCheckpoint    *obs.Gauge
	importSeconds     *obs.Gauge
}

func newDurableMetrics(r *obs.Registry) *durableMetrics {
	return &durableMetrics{
		checkpoints: r.Counter("radloc_durable_checkpoints_total",
			"Engine-state checkpoints written this run."),
		failures: r.Counter("radloc_durable_checkpoint_failures_total",
			"Checkpoint attempts that failed (the WAL keeps everything; retried on cadence)."),
		checkpointSeconds: r.Histogram("radloc_durable_checkpoint_seconds",
			"Wall-clock seconds per checkpoint: state export, WAL sync, atomic write, prune.", nil),
		lastCheckpoint: r.Gauge("radloc_durable_last_checkpoint_offset",
			"WAL offset covered by the newest checkpoint."),
		importSeconds: r.Gauge("radloc_durable_checkpoint_import_seconds",
			"Wall-clock seconds boot spent loading, decoding and importing the zone's checkpoint."),
	}
}

// done accounts one checkpoint attempt.
func (m *durableMetrics) done(t0 time.Time, err error) {
	m.checkpointSeconds.Observe(time.Since(t0).Seconds())
	if err != nil {
		m.failures.Inc()
		return
	}
	m.checkpoints.Inc()
}
