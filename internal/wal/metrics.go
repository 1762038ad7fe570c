package wal

import "radloc/internal/obs"

// walMetrics instruments one Log.
type walMetrics struct {
	appends, fsyncs, rotations *obs.Counter
	refreshes, replayed        *obs.Counter
	truncatedRecords           *obs.Counter
	droppedSegments            *obs.Counter
	appendSeconds              *obs.Histogram
	fsyncSeconds               *obs.Histogram
	replaySeconds              *obs.Histogram
	offset, segments           *obs.Gauge
	retainedSegments           *obs.Gauge
}

// newWALMetrics registers the log's collectors on r.
func newWALMetrics(r *obs.Registry) *walMetrics {
	return &walMetrics{
		appends: r.Counter("radloc_wal_appends_total",
			"Records appended to the write-ahead log."),
		fsyncs: r.Counter("radloc_wal_fsyncs_total",
			"fsync calls issued on the active segment."),
		refreshes: r.Counter("radloc_wal_refresh_entries_total",
			"Refresh entries (a refresh's estimates, journaled after its reading) appended."),
		rotations: r.Counter("radloc_wal_rotations_total",
			"Segment rotations (active tail sealed, new segment opened)."),
		replayed: r.Counter("radloc_wal_replayed_records_total",
			"Records streamed out by Replay (recovery and spool reads)."),
		truncatedRecords: r.Counter("radloc_wal_recovery_truncated_records_total",
			"Corrupt or torn records discarded by recovery on Open."),
		droppedSegments: r.Counter("radloc_wal_recovery_dropped_segments_total",
			"Whole segment files discarded by recovery on Open."),
		appendSeconds: r.Histogram("radloc_wal_append_seconds",
			"Wall-clock seconds per Append, including any per-record fsync.", nil),
		fsyncSeconds: r.Histogram("radloc_wal_fsync_seconds",
			"Wall-clock seconds per flush+fsync of the active segment.", nil),
		replaySeconds: r.Histogram("radloc_wal_replay_seconds",
			"Wall-clock seconds per Replay call.", nil),
		offset: r.Gauge("radloc_wal_offset",
			"Global record index the next append will receive."),
		segments: r.Gauge("radloc_wal_segments",
			"Live segment files, including the active tail."),
		retainedSegments: r.Gauge("radloc_wal_retained_segments",
			"Segments held past the checkpoint watermark because a lagging replica still needs them."),
	}
}

// layout refreshes the segment-count and offset gauges.
func (m *walMetrics) layout(segments int, next uint64) {
	m.segments.Set(float64(segments))
	m.offset.Set(float64(next))
}
