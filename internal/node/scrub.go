package node

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/scrub"
	"radloc/internal/wal"
	"radloc/internal/zone"
)

// corruptDirName is where the scrubber parks artifacts that failed
// cold re-verification, inside the zone's WAL directory. Like
// diverged/, nothing in it is ever deleted — it is the operator's
// evidence of what the disk silently lost.
const corruptDirName = "corrupt"

// scrubStore adapts one zone's durability plumbing to scrub.Store.
// Every method runs on the zone's event loop through Do, the log's
// only owner, so a scrub never races an append, a checkpoint's prune
// or a quarantine. Segments are bounded (-wal-segment records), so a
// verify occupies the loop for the same order of time as a checkpoint.
type scrubStore struct {
	zs *zoneSet
	z  *zone.Zone
	d  *durable
}

// onLoop runs fn on the zone's event loop.
func (s *scrubStore) onLoop(fn func() error) error {
	return s.z.Do(context.TODO(), func(*fusion.Engine) error { return fn() })
}

// Segments implements scrub.Store; nil once the zone has closed.
func (s *scrubStore) Segments() (out []wal.SegmentInfo) {
	_ = s.onLoop(func() error {
		out = s.d.log.SegmentInfos()
		return nil
	})
	return out
}

// VerifySegment implements scrub.Store. A zone that closed after the
// scrubber listed it verifies clean rather than corrupt: its next
// recovery re-validates the log anyway.
func (s *scrubStore) VerifySegment(start uint64) error {
	err := s.onLoop(func() error { return s.d.log.VerifySegment(start) })
	if errors.Is(err, zone.ErrZoneClosed) {
		return nil
	}
	return err
}

// QuarantineSegment implements scrub.Store, parking the segment in
// <wal-dir>/corrupt/.
func (s *scrubStore) QuarantineSegment(start uint64) (removed uint64, err error) {
	err = s.onLoop(func() (err error) {
		removed, err = s.d.log.QuarantineSegment(start, filepath.Join(s.d.dir, corruptDirName))
		return err
	})
	return removed, err
}

// VerifyCheckpoints implements scrub.Store.
func (s *scrubStore) VerifyCheckpoints() (bad []uint64, err error) {
	err = s.onLoop(func() (err error) {
		bad, err = wal.VerifyCheckpoints(s.d.fs, s.d.dir)
		return err
	})
	return bad, err
}

// QuarantineCheckpoint implements scrub.Store.
func (s *scrubStore) QuarantineCheckpoint(applied uint64) error {
	return s.onLoop(func() error {
		if err := wal.QuarantineCheckpoint(s.d.fs, s.d.dir, applied); err != nil {
			return err
		}
		s.d.forgetCheckpoint(applied)
		return nil
	})
}

// Repair implements scrub.Store: re-anchor recovery past the
// quarantined range with a checkpoint whose applied offset is >= to —
// seeded from a caught-up replica's exported state when the cluster
// has one (an independent copy, immune to whatever corrupted the
// local disk), and otherwise from the local in-memory engine, which
// is still correct: the corruption was cold, every lost record was
// applied when it was first written and the engine never forgot it.
func (s *scrubStore) Repair(ctx context.Context, from, to uint64) (string, error) {
	if src, ok := s.zs.repairFromReplica(ctx, s.z, s.d, to); ok {
		return src, nil
	}
	return "local", s.z.Do(ctx, func(*fusion.Engine) error { return s.d.adoptLocalCheckpoint() })
}

// repairFromReplica tries the replica path of a scrub repair: a
// caught-up standby (acked at least through the hole's end) exports
// its state, and that snapshot becomes the new recovery anchor.
// ok=false means the caller should fall back to local state; the
// reason is logged, never fatal. The fetch runs off the zone's loop;
// only persisting the fetched checkpoint runs on it.
func (zs *zoneSet) repairFromReplica(ctx context.Context, z *zone.Zone, d *durable, to uint64) (string, bool) {
	n := zs.clusterNode
	if n == nil {
		return "", false
	}
	zoneName := z.Name()
	peer, acked, ok := n.RepairSource(zoneName)
	if !ok || acked < to {
		return "", false
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	applied, _, state, err := n.FetchState(ctx, peer, zoneName)
	if err != nil {
		fmt.Fprintf(zs.cfg.Log, "radlocd: zone %q: scrub repair fetch from %s failed, using local state: %v\n",
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
		fmt.Fprintf(zs.cfg.Log, "radlocd: zone %q: replica %s state does not decode, using local state: %v\n",
			zoneName, peer, err)
		return "", false
	}
	err = z.Do(ctx, func(*fusion.Engine) error {
		return d.adoptCheckpoint(wal.Checkpoint{Applied: applied, State: state})
	})
	if err != nil {
		fmt.Fprintf(zs.cfg.Log, "radlocd: zone %q: persisting replica checkpoint failed, using local state: %v\n",
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

// forgetCheckpoint clears bookkeeping that referred to a quarantined
// checkpoint, so the next cadence checkpoint fires promptly and the
// prune floor cannot rest on a file that no longer exists.
func (d *durable) forgetCheckpoint(applied uint64) {
	last, prev := d.lastApplied, d.prevApplied
	if last == applied {
		last = prev
	}
	if prev == applied {
		prev = 0
	}
	d.setCheckpoints(last, prev)
}

// scrubTargets enumerates the currently-live durable zones for the
// scrubber. Degraded zones are skipped — a disk that cannot accept
// writes cannot accept a repair either; the storage probe loop owns
// that state — and so are zones idled out of memory: their next
// recovery validates them anyway.
func (zs *zoneSet) scrubTargets() []scrub.Target {
	var out []scrub.Target
	for _, name := range zs.manager.Names() {
		z, ok := zs.manager.Lookup(name)
		if !ok {
			continue
		}
		d := zoneDurable(z)
		if d == nil || d.storageDegraded() {
			continue
		}
		out = append(out, scrub.Target{Zone: name, Store: &scrubStore{zs: zs, z: z, d: d}})
	}
	return out
}
