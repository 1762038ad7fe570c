package node

import (
	"context"
	"fmt"
	"io"
	"log"
	"path/filepath"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/obs"
	"radloc/internal/wal"
)

// The integrity scrubber. Recovery-time validation only proves a WAL
// segment was intact when the process opened it; a bit that flips
// afterwards — controller bug, cosmic ray, silent media decay — sits
// undetected until the next crash, which is exactly when it hurts. The
// scrubber closes that window: on the jittered -scrub-interval cadence
// Start runs, it re-parses each zone's retained checkpoints and re-reads
// one sealed segment, re-verifying every record's CRC envelope. A
// segment or checkpoint that no longer verifies is quarantined (moved
// aside, never deleted) and the hole a segment leaves in recovery is
// immediately re-anchored: a fresh checkpoint at or past the hole's
// end, seeded from a caught-up replica when the cluster has one — an
// independent copy, immune to whatever corrupted the local disk — or
// from the local in-memory engine otherwise. A repair that fails is
// retried on every tick until a checkpoint lands at or past the hole.

// corruptDirName is where the scrubber parks artifacts that failed
// cold re-verification, inside the zone's WAL directory. Like
// diverged/, nothing in it is ever deleted — it is the operator's
// evidence of what the disk silently lost.
const corruptDirName = "corrupt"

// scrubber is the integrity loop: its log and its counters. New builds
// one only when scrubbing is on, so the radloc_scrub_* families exist
// only then. Each step of a tick runs on the zone's event loop through
// Do, the log's only owner, so a scrub never races an append, a
// checkpoint's prune or a quarantine. Segments are bounded
// (-wal-segment records), so a verify occupies the loop for the same
// order of time as a checkpoint. A step once queued is never abandoned
// (context.WithoutCancel), so a shutdown mid-tick cannot leave a
// quarantine unseen; the tick checks its context between zones.
type scrubber struct {
	zs  *zoneSet
	log *log.Logger

	ticks       *obs.Counter
	segments    *obs.Counter
	segFailed   *obs.Counter
	ckptPasses  *obs.Counter
	corruptions *obs.CounterFamily
	repairs     *obs.CounterFamily
	repairFails *obs.Counter
}

// newScrubber registers the radloc_scrub_* families on reg and logs to
// logw.
func newScrubber(zs *zoneSet, reg *obs.Registry, logw io.Writer) *scrubber {
	return &scrubber{
		zs:  zs,
		log: log.New(logw, "", log.LstdFlags),
		ticks: reg.Counter("radloc_scrub_ticks_total",
			"Scrub rounds started (one sealed segment per zone per round)."),
		segments: reg.Counter("radloc_scrub_segments_verified_total",
			"Sealed WAL segments re-read and CRC-verified by the scrubber."),
		segFailed: reg.Counter("radloc_scrub_segment_failures_total",
			"Sealed WAL segments that failed re-verification (cold corruption)."),
		ckptPasses: reg.Counter("radloc_scrub_checkpoint_passes_total",
			"Checkpoint re-parse passes completed (all retained checkpoints per pass)."),
		corruptions: reg.CounterFamily("radloc_scrub_corruptions_total",
			"Cold-corruption detections by artifact kind.", "kind"),
		repairs: reg.CounterFamily("radloc_scrub_repairs_total",
			"Recovery re-anchors completed after a quarantine, by state source.", "source"),
		repairFails: reg.Counter("radloc_scrub_repair_failures_total",
			"Quarantines or repairs that failed, retries included; a failed repair is retried each tick until a checkpoint re-anchors recovery."),
	}
}

// tick runs one scrub round over every scrub target: checkpoints are
// all re-parsed (they are few and small), a repair an earlier tick
// failed is retried, and one sealed segment per zone is re-read,
// round-robin across ticks so a zone's whole cold history is covered
// every len(segments) intervals. Targets are listed afresh each tick,
// so zones that appear, idle out, or degrade between ticks are picked
// up or skipped naturally.
func (s *scrubber) tick(ctx context.Context) {
	s.ticks.Inc()
	for _, t := range s.zs.scrubTargets() {
		if ctx.Err() != nil {
			return
		}
		if hole := s.checkpoints(ctx, t); hole != 0 {
			s.reanchor(ctx, t, hole, "retrying the repair of an earlier hole")
		}
		s.segment(ctx, t)
	}
}

// checkpoints re-parses the zone's retained checkpoints and quarantines
// any that no longer decode. No repair step is needed: losing a
// checkpoint only lengthens the next replay, and the very next cadence
// checkpoint replaces it. It returns the end of the zone's unrepaired
// hole, 0 if none: the zone keeps it from a failed repair until a
// checkpoint lands at or past it (see setCheckpoints).
func (s *scrubber) checkpoints(ctx context.Context, t durableZone) (hole uint64) {
	var bad []uint64
	err := t.z.Do(context.WithoutCancel(ctx), func(*fusion.Engine) (err error) {
		hole = t.d.unrepaired
		bad, err = wal.VerifyCheckpoints(t.d.fs, t.d.dir)
		return err
	})
	if err != nil {
		s.log.Printf("scrub: zone %q: verify checkpoints: %v", t.z.Name(), err)
		return hole
	}
	s.ckptPasses.Inc()
	for _, applied := range bad {
		s.corruptions.With("checkpoint").Inc()
		err := t.z.Do(context.WithoutCancel(ctx), func(*fusion.Engine) error { return t.d.quarantineCheckpoint(applied) })
		if err != nil {
			s.log.Printf("scrub: zone %q: checkpoint@%d corrupt but quarantine failed: %v", t.z.Name(), applied, err)
			continue
		}
		s.log.Printf("scrub: zone %q: checkpoint@%d no longer decodes; quarantined (next cadence checkpoint replaces it)",
			t.z.Name(), applied)
	}
	return hole
}

// segment advances the zone's cursor to the next sealed segment,
// re-verifies it, and on corruption quarantines it — all in one loop
// operation, so a zone that closes mid-tick is skipped, not half
// scrubbed — then re-anchors recovery past the hole.
func (s *scrubber) segment(ctx context.Context, t durableZone) {
	var (
		seg        wal.SegmentInfo
		found      bool
		removed    uint64
		verr, qerr error
	)
	err := t.z.Do(context.WithoutCancel(ctx), func(*fusion.Engine) error {
		if seg, found = nextSealed(t.d.log.SegmentInfos(), t.d.scrubCursor); !found {
			return nil
		}
		t.d.scrubCursor = seg.Start + seg.Count
		if verr = t.d.log.VerifySegment(seg.Start); verr != nil {
			removed, qerr = t.d.log.QuarantineSegment(seg.Start, filepath.Join(t.d.dir, corruptDirName))
		}
		return nil
	})
	if err != nil || !found {
		return // closed mid-tick, or nothing cold to verify
	}
	s.segments.Inc()
	if verr == nil {
		return
	}
	name := t.z.Name()
	s.segFailed.Inc()
	s.corruptions.With("segment").Inc()
	s.log.Printf("scrub: zone %q: cold corruption in segment@%d (%d records): %v", name, seg.Start, seg.Count, verr)
	if qerr != nil {
		s.repairFails.Inc()
		s.log.Printf("scrub: zone %q: quarantine segment@%d failed: %v", name, seg.Start, qerr)
		return
	}
	s.reanchor(ctx, t, seg.Start+seg.Count, fmt.Sprintf("segment@%d quarantined (%d records)", seg.Start, removed))
}

// reanchor repairs the hole that ends at to and counts and logs the
// outcome; what says how the hole came up.
func (s *scrubber) reanchor(ctx context.Context, t durableZone, to uint64, what string) {
	source, err := s.repair(ctx, t, to)
	if err != nil {
		s.repairFails.Inc()
		s.log.Printf("scrub: zone %q: %s; repair failed — recovery below offset %d is broken until a retry or a checkpoint re-anchors it: %v",
			t.z.Name(), what, to, err)
		return
	}
	// source is "local" or the replica's URL; the label keeps only
	// local/replica so its cardinality stays bounded.
	label := "local"
	if source != "local" {
		label = "replica"
	}
	s.repairs.With(label).Inc()
	s.log.Printf("scrub: zone %q: %s, recovery re-anchored past %d from %s", t.z.Name(), what, to, source)
}

// nextSealed picks the first sealed segment at or after cursor,
// wrapping to the oldest sealed segment when the cursor has passed
// the newest — the round-robin that makes coverage complete.
func nextSealed(segs []wal.SegmentInfo, cursor uint64) (wal.SegmentInfo, bool) {
	for _, seg := range segs {
		if seg.Sealed && seg.Start >= cursor {
			return seg, true
		}
	}
	for _, seg := range segs {
		if seg.Sealed {
			return seg, true
		}
	}
	return wal.SegmentInfo{}, false
}

// repair re-anchors recovery past a quarantined hole ending at to: it
// leaves a durable checkpoint whose applied offset is >= to, seeded
// from a caught-up replica's exported state when the cluster has one
// (an independent copy, immune to whatever corrupted the local disk),
// and otherwise from the local in-memory engine, which is still
// correct: the corruption was cold, every lost record was applied when
// it was first written and the engine never forgot it. It returns the
// state's source: "local", or the replica's URL. When the local
// checkpoint fails too, the zone keeps the hole's end for the next
// tick's retry.
func (s *scrubber) repair(ctx context.Context, t durableZone, to uint64) (string, error) {
	if src, ok := s.repairFromReplica(ctx, t, to); ok {
		return src, nil
	}
	return "local", t.z.Do(ctx, func(*fusion.Engine) error {
		err := t.d.adoptLocalCheckpoint()
		if err != nil && t.d.lastApplied < to {
			t.d.unrepaired = max(t.d.unrepaired, to)
		}
		return err
	})
}

// repairFromReplica tries the replica path of a repair: a caught-up
// standby (acked at least through the hole's end) exports its state,
// and that snapshot becomes the new recovery anchor. ok=false means the
// caller should fall back to local state; the reason is logged, never
// fatal. The fetch runs off the zone's loop; only persisting the
// fetched checkpoint runs on it.
func (s *scrubber) repairFromReplica(ctx context.Context, t durableZone, to uint64) (string, bool) {
	n := s.zs.clusterNode
	if n == nil {
		return "", false
	}
	zoneName, logw := t.z.Name(), s.zs.cfg.Log
	peer, acked, ok := n.RepairSource(zoneName)
	if !ok || acked < to {
		return "", false
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	applied, _, state, err := n.FetchState(ctx, peer, zoneName)
	if err != nil {
		fmt.Fprintf(logw, "radlocd: zone %q: scrub repair fetch from %s failed, using local state: %v\n",
			zoneName, peer, err)
		return "", false
	}
	if applied < to {
		return "", false
	}
	// The snapshot must at least decode before it becomes the recovery
	// anchor; boot tolerates an unusable checkpoint only by falling
	// back to a full replay, which the quarantine just made impossible.
	if _, err := fusion.DecodeState(state); err != nil {
		fmt.Fprintf(logw, "radlocd: zone %q: replica %s state does not decode, using local state: %v\n",
			zoneName, peer, err)
		return "", false
	}
	err = t.z.Do(ctx, func(*fusion.Engine) error {
		return t.d.adoptCheckpoint(wal.Checkpoint{Applied: applied, State: state})
	})
	if err != nil {
		fmt.Fprintf(logw, "radlocd: zone %q: persisting replica checkpoint failed, using local state: %v\n",
			zoneName, err)
		return "", false
	}
	return peer, true
}

// adoptLocalCheckpoint re-anchors recovery from the local in-memory
// engine — the scrubber's fallback when no caught-up replica exists.
// It runs on the zone's event loop.
func (d *durable) adoptLocalCheckpoint() error {
	st, err := d.engine.ExportState()
	if err != nil {
		return err
	}
	blob, err := fusion.EncodeState(st)
	if err != nil {
		return err
	}
	return d.adoptCheckpoint(wal.Checkpoint{Applied: st.Journaled, State: blob})
}

// adoptCheckpoint persists an externally assembled checkpoint and
// folds it into the cadence bookkeeping. The WAL is synced first so
// the checkpoint never refers past the durable log; the WAL itself is
// not pruned here — the next cadence checkpoint advances the floor on
// its own schedule.
func (d *durable) adoptCheckpoint(ck wal.Checkpoint) error {
	if err := d.log.Sync(); err != nil {
		return err
	}
	if err := wal.WriteCheckpointFS(d.fs, d.dir, ck); err != nil {
		return err
	}
	_ = wal.PruneCheckpointsFS(d.fs, d.dir, 2)
	if ck.Applied > d.lastApplied {
		d.setCheckpoints(ck.Applied, d.lastApplied)
	}
	return nil
}

// quarantineCheckpoint moves one corrupt checkpoint aside and clears
// bookkeeping that referred to it, so the next cadence checkpoint fires
// promptly and the prune floor cannot rest on a file that no longer
// exists. It runs on the zone's event loop.
func (d *durable) quarantineCheckpoint(applied uint64) error {
	if _, err := wal.SetAside(d.fs, wal.CheckpointPath(d.dir, applied)); err != nil {
		return err
	}
	last, prev := d.lastApplied, d.prevApplied
	if last == applied {
		last = prev
	}
	if prev == applied {
		prev = 0
	}
	d.setCheckpoints(last, prev)
	return nil
}

// scrubTargets lists the live durable zones the scrubber visits.
// Degraded zones are skipped — a disk that cannot accept writes cannot
// accept a repair either; the storage probe loop owns that state — and
// so are zones idled out of memory: their next recovery validates them
// anyway.
func (zs *zoneSet) scrubTargets() []durableZone {
	var out []durableZone
	for _, t := range zs.durableZones() {
		if !t.d.storageDegraded() {
			out = append(out, t)
		}
	}
	return out
}
