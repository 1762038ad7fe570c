package scrub

import "radloc/internal/obs"

// scrubMetrics instruments one Scrubber.
type scrubMetrics struct {
	ticks       *obs.Counter
	segments    *obs.Counter
	segFailed   *obs.Counter
	ckptPasses  *obs.Counter
	corruptions *obs.CounterFamily
	repairs     *obs.CounterFamily
	repairFails *obs.Counter
}

// newScrubMetrics registers the scrubber's collectors on r.
func newScrubMetrics(r *obs.Registry) *scrubMetrics {
	return &scrubMetrics{
		ticks: r.Counter("radloc_scrub_ticks_total",
			"Scrub rounds started (one sealed segment per zone per round)."),
		segments: r.Counter("radloc_scrub_segments_verified_total",
			"Sealed WAL segments re-read and CRC-verified by the scrubber."),
		segFailed: r.Counter("radloc_scrub_segment_failures_total",
			"Sealed WAL segments that failed re-verification (cold corruption)."),
		ckptPasses: r.Counter("radloc_scrub_checkpoint_passes_total",
			"Checkpoint re-parse passes completed (all retained checkpoints per pass)."),
		corruptions: r.CounterFamily("radloc_scrub_corruptions_total",
			"Cold-corruption detections by artifact kind.", "kind"),
		repairs: r.CounterFamily("radloc_scrub_repairs_total",
			"Recovery re-anchors completed after a quarantine, by state source.", "source"),
		repairFails: r.Counter("radloc_scrub_repair_failures_total",
			"Quarantines or repairs that failed; recovery may be broken until the next checkpoint."),
	}
}
