package node

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/httpingest"
	"radloc/internal/obs"
	"radloc/internal/vfs"
	"radloc/internal/wal"
)

// recoveryJSON reports what boot-time recovery found and did — logged
// at startup and served on /statez for the life of the process.
type recoveryJSON struct {
	WalRecords       uint64 `json:"walRecords"`
	WalSegments      int    `json:"walSegments"`
	TruncatedRecords uint64 `json:"truncatedRecords,omitempty"`
	TruncatedBytes   int64  `json:"truncatedBytes,omitempty"`
	DroppedSegments  int    `json:"droppedSegments,omitempty"`
	// CheckpointUsed is true when a valid checkpoint seeded the engine;
	// CheckpointDiscarded when one existed but its state would not
	// import (recovery fell back to replaying the whole surviving WAL).
	CheckpointUsed      bool   `json:"checkpointUsed"`
	CheckpointApplied   uint64 `json:"checkpointApplied,omitempty"`
	CheckpointDiscarded bool   `json:"checkpointDiscarded,omitempty"`
	// Replayed is the number of WAL records re-applied at boot.
	Replayed uint64 `json:"replayed"`
	// ImportSeconds is the wall-clock time boot spent loading,
	// decoding and importing the checkpoint (the WAL replay after it
	// is radloc_wal_replay_seconds). /statez reads it back from
	// radloc_durable_checkpoint_import_seconds.
	ImportSeconds float64 `json:"importSeconds"`
}

// durable owns radlocd's durability plumbing: the WAL, the checkpoint
// cadence, the recovery report, and the zone's storage-health state
// (see storage.go for the degraded-mode machinery). It is the engine's
// fusion.Journal.
//
// The zone's event loop is its only owner, as it is the engine's:
// Append, the checkpoint cadence and the Close hook already run there,
// and every other user of the log or of the checkpoint bookkeeping —
// replication reads, the scrubber, the storage probe — enters through
// zone.Do. Code off the loop reads only what the loop publishes: the
// WAL head as the snapshot's Journaled, the newest checkpoint on the
// radloc_durable_last_checkpoint_offset gauge, the storage state
// through an atomic pointer, and the recovery report, fixed at boot.
type durable struct {
	dir    string
	fs     vfs.FS
	fsync  wal.FsyncPolicy
	every  int // checkpoint every N journaled records; 0 = shutdown only
	engine *fusion.Engine
	log    *wal.Log
	logw   io.Writer

	// met holds the checkpoint counters and timing — the registry
	// collectors are the source of truth; statez reads them.
	met *durableMetrics

	lastApplied uint64 // newest checkpoint's WAL offset; set only through setCheckpoints
	prevApplied uint64 // second-newest — segments below it are prunable
	recovery    recoveryJSON

	// storage is the degraded-mode state, swapped in by the loop on
	// each append outcome that changes it.
	storage atomic.Pointer[storageState]
}

// Append implements fusion.Journal: it journals one reading and feeds
// the outcome to the degraded-mode edge detector.
func (d *durable) Append(m fusion.Meas) error {
	_, err := d.log.Append(m)
	d.noteAppend(err)
	return err
}

// setCheckpoints records the two newest checkpoint offsets. It is the
// only writer of either, and it publishes the newest on
// radloc_durable_last_checkpoint_offset, which /statez reads back, so
// the two surfaces cannot disagree.
func (d *durable) setCheckpoints(last, prev uint64) {
	d.lastApplied, d.prevApplied = last, prev
	d.met.lastCheckpoint.Set(float64(last))
}

// openDurable opens (or cold-starts) the durability directory and
// returns a recovered engine: newest valid checkpoint imported, WAL
// suffix replayed through the live ingest path, torn tails truncated.
// Bad data on disk is repaired and reported, never fatal — the daemon
// must come up. build constructs a fresh engine wired to the given
// journal; it may be called twice if a checkpoint turns out to be
// unusable.
func openDurable(dir string, fsys vfs.FS, pol wal.FsyncPolicy, every, segRecords int,
	build func(fusion.Journal) (*fusion.Engine, error), reg *obs.Registry, logw io.Writer) (*fusion.Engine, *durable, error) {

	fsys, reg = vfs.Or(fsys), obs.Or(reg)
	l, stats, err := wal.Open(dir, wal.Options{Fsync: pol, Metrics: reg, FS: fsys, SegmentRecords: segRecords})
	if err != nil {
		return nil, nil, fmt.Errorf("open WAL %s: %w", dir, err)
	}
	d := &durable{dir: dir, fs: fsys, fsync: pol, every: every, log: l, logw: logw, met: newDurableMetrics(reg)}
	d.storage.Store(&storageState{})
	engine, err := build(d)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	d.engine = engine
	reg.GaugeFunc("radloc_storage_degraded",
		"1 while the zone's WAL is unwritable and ingest answers 507 (read-only mode).",
		func() float64 {
			if d.storageDegraded() {
				return 1
			}
			return 0
		})
	d.recovery = recoveryJSON{
		WalRecords:       stats.Records,
		WalSegments:      stats.Segments,
		TruncatedRecords: stats.TruncatedRecords,
		TruncatedBytes:   stats.TruncatedBytes,
		DroppedSegments:  stats.DroppedSegments,
	}

	replayFrom := uint64(0)
	t0 := time.Now()
	if ck, ok, lerr := wal.LoadCheckpointFS(fsys, dir); lerr != nil {
		l.Close()
		return nil, nil, lerr
	} else if ok {
		st, ierr := fusion.DecodeState(ck.State)
		if ierr == nil {
			ierr = engine.ImportState(st)
		}
		if ierr != nil {
			// A checkpoint that will not import must not poison boot:
			// fall back to a fresh engine and replay the whole WAL.
			fmt.Fprintf(logw, "radlocd: discarding unusable checkpoint (applied %d): %v\n", ck.Applied, ierr)
			d.recovery.CheckpointDiscarded = true
			if engine, err = build(d); err != nil {
				l.Close()
				return nil, nil, err
			}
			d.engine = engine
		} else {
			d.recovery.CheckpointUsed = true
			d.recovery.CheckpointApplied = ck.Applied
			replayFrom = ck.Applied
		}
	}
	d.met.importSeconds.Set(time.Since(t0).Seconds())
	if replayFrom > l.Offset() {
		// The checkpoint outlived the WAL tail (corruption truncated
		// records it had already covered): fast-forward the log so new
		// records never reuse offsets the checkpoint claims.
		if err := l.AlignTo(replayFrom); err != nil {
			l.Close()
			return nil, nil, err
		}
	}
	if err := l.Replay(replayFrom, func(off uint64, rec wal.Record) error {
		engine.Replay(rec)
		d.recovery.Replayed++
		return nil
	}); err != nil {
		l.Close()
		return nil, nil, fmt.Errorf("replay WAL %s: %w", dir, err)
	}
	// From here on the engine's journal counter IS the WAL offset; each
	// Append advances both in lockstep.
	engine.SetJournalOffset(l.Offset())
	d.setCheckpoints(d.recovery.CheckpointApplied, 0)
	fmt.Fprintf(logw, "radlocd: durability on (%s, fsync=%s): %d WAL records, checkpoint@%d used=%v, %d replayed, %d truncated\n",
		dir, pol, d.recovery.WalRecords, d.recovery.CheckpointApplied, d.recovery.CheckpointUsed,
		d.recovery.Replayed, d.recovery.TruncatedRecords)
	return engine, d, nil
}

// maybeCheckpoint writes a checkpoint if the WAL has grown past the
// cadence since the last one. It runs on the zone's event loop after
// each client batch and each replicated apply, never after other
// control operations, so checkpoints never overlap; a failure is
// reported but does not stop ingest (the WAL still has everything).
func (d *durable) maybeCheckpoint(logw io.Writer) {
	if d.every <= 0 {
		return
	}
	if d.log.Offset() < d.lastApplied+uint64(d.every) {
		return
	}
	if err := d.checkpoint(); err != nil {
		fmt.Fprintf(logw, "radlocd: checkpoint failed (WAL intact, will retry): %v\n", err)
	}
}

// checkpoint persists the engine state: export it (on the zone's
// event loop, like every engine access), sync the WAL through the
// exported offset (a checkpoint must never run ahead of the durable
// log), write atomically, prune what the surviving checkpoints no
// longer need.
func (d *durable) checkpoint() (err error) {
	t0 := time.Now()
	st, err := d.engine.ExportState()
	defer func() { d.met.done(t0, err) }()
	if err != nil {
		return err
	}
	blob, err := fusion.EncodeState(st)
	if err != nil {
		return err
	}
	if err := d.log.Sync(); err != nil {
		return err
	}
	if err := wal.WriteCheckpointFS(d.fs, d.dir, wal.Checkpoint{Applied: st.Journaled, State: blob}); err != nil {
		return err
	}
	_ = wal.PruneCheckpointsFS(d.fs, d.dir, 2)
	if st.Journaled != d.lastApplied {
		d.setCheckpoints(st.Journaled, d.lastApplied)
	}
	return d.log.Prune(d.prevApplied)
}

// close flushes everything: final checkpoint, then sync and close the
// WAL. Called on graceful shutdown; after a crash, recovery does the
// equivalent from disk.
func (d *durable) close() error {
	err := d.checkpoint()
	cerr := d.log.Close()
	if err == nil {
		err = cerr
	}
	return err
}

// statezJSON is the /statez payload: durability + delivery +
// admission (backpressure) posture.
type statezJSON struct {
	Durability durabilityJSON       `json:"durability"`
	Delivery   fusion.DeliveryStats `json:"delivery"`
	Ingress    fusion.IngressStats  `json:"ingress"`
	Journaled  uint64               `json:"journaled"`
}

type durabilityJSON struct {
	Enabled        bool          `json:"enabled"`
	WalDir         string        `json:"walDir,omitempty"`
	Fsync          string        `json:"fsync,omitempty"`
	WalOffset      uint64        `json:"walOffset,omitempty"`
	Checkpoints    uint64        `json:"checkpoints"`
	LastCheckpoint uint64        `json:"lastCheckpoint"`
	Recovery       *recoveryJSON `json:"recovery,omitempty"`
	// Degraded is true while the zone's WAL is unwritable: ingest
	// answers 507 + Retry-After (agents spool) until a write or probe
	// succeeds again.
	Degraded       bool      `json:"degraded,omitempty"`
	DegradedSince  time.Time `json:"degradedSince,omitempty"`
	LastStorageErr string    `json:"lastStorageErr,omitempty"`
	// DegradedTotal counts how many times this zone has entered
	// degraded mode over the process lifetime.
	DegradedTotal uint64 `json:"degradedTotal,omitempty"`
}

// statez assembles the /statez payload from a zone's published
// snapshot and what its loop published besides; it never waits for
// the loop. d may be nil (durability off), ing may be nil (the
// per-zone view, which carries no admission counters).
func statez(s fusion.Snapshot, d *durable, ing *httpingest.Handler) statezJSON {
	out := statezJSON{Delivery: s.Delivery, Journaled: s.Journaled}
	if ing != nil {
		out.Ingress = ing.Stats()
	}
	if d == nil {
		return out
	}
	rec := d.recovery
	rec.ImportSeconds = d.met.importSeconds.Value()
	st := d.storage.Load()
	out.Durability = durabilityJSON{
		Enabled:        true,
		WalDir:         d.dir,
		Fsync:          d.fsync.String(),
		WalOffset:      s.Journaled,
		Checkpoints:    d.met.checkpoints.Value(),
		LastCheckpoint: uint64(d.met.lastCheckpoint.Value()),
		Recovery:       &rec,
		Degraded:       st.degraded,
		DegradedTotal:  st.entered,
		LastStorageErr: st.lastErr,
	}
	if st.degraded {
		out.Durability.DegradedSince = st.since
	}
	return out
}
