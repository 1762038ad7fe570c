package node

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/httpingest"
	"radloc/internal/obs"
	"radloc/internal/vfs"
	"radloc/internal/wal"
)

// walJournal bridges the fusion engine's write-ahead hook to the WAL.
// Append runs on the zone's event loop, the engine's only owner, so WAL
// order is exactly the filter's application order; mu serializes the
// log against its off-loop users — replication reads, the scrubber,
// the storage probe and /statez.
type walJournal struct {
	mu  sync.Mutex
	log *wal.Log
	// onResult, when set, observes every append outcome (outside mu) —
	// the degraded-mode tracker's entry and exit signal.
	onResult func(error)
}

func (j *walJournal) Append(m fusion.Meas) error {
	j.mu.Lock()
	_, err := j.log.Append(wal.Record{SensorID: m.SensorID, CPM: m.CPM, Step: m.Step, Seq: m.Seq})
	j.mu.Unlock()
	if j.onResult != nil {
		j.onResult(err)
	}
	return err
}

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
}

// durable owns radlocd's durability plumbing: the WAL, the checkpoint
// cadence, the recovery report, and the zone's storage-health state
// (see storage.go for the degraded-mode machinery).
type durable struct {
	dir    string
	fs     vfs.FS
	fsync  wal.FsyncPolicy
	every  int // checkpoint every N journaled records; 0 = shutdown only
	engine *fusion.Engine
	j      *walJournal
	logw   io.Writer

	// met holds the checkpoint counters and timing — the registry
	// collectors are the source of truth; statez reads them.
	met *durableMetrics

	mu          sync.Mutex
	lastApplied uint64 // newest checkpoint's WAL offset
	prevApplied uint64 // second-newest — segments below it are prunable
	recovery    recoveryJSON

	// Degraded read-only mode: set on the first failed journal append,
	// cleared by the first success (organic traffic or the probe loop).
	degraded       bool
	degradedSince  time.Time
	lastStorageErr string
	degradedTotal  uint64 // times this zone entered degraded mode
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

	fsys = vfs.Or(fsys)
	l, stats, err := wal.Open(dir, wal.Options{Fsync: pol, Metrics: reg, FS: fsys, SegmentRecords: segRecords})
	if err != nil {
		return nil, nil, fmt.Errorf("open WAL %s: %w", dir, err)
	}
	j := &walJournal{log: l}
	engine, err := build(j)
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	d := &durable{dir: dir, fs: fsys, fsync: pol, every: every, engine: engine, j: j, logw: logw, met: newDurableMetrics(reg)}
	j.onResult = d.noteAppend
	if reg != nil {
		reg.GaugeFunc("radloc_storage_degraded",
			"1 while the zone's WAL is unwritable and ingest answers 507 (read-only mode).",
			func() float64 {
				if d.storageDegraded() {
					return 1
				}
				return 0
			})
	}
	d.recovery = recoveryJSON{
		WalRecords:       stats.Records,
		WalSegments:      stats.Segments,
		TruncatedRecords: stats.TruncatedRecords,
		TruncatedBytes:   stats.TruncatedBytes,
		DroppedSegments:  stats.DroppedSegments,
	}

	replayFrom := uint64(0)
	if ck, ok, lerr := wal.LoadCheckpointFS(fsys, dir); lerr != nil {
		l.Close()
		return nil, nil, lerr
	} else if ok {
		var st fusion.EngineState
		ierr := json.Unmarshal(ck.State, &st)
		if ierr == nil {
			ierr = engine.ImportState(st)
		}
		if ierr != nil {
			// A checkpoint that will not import must not poison boot:
			// fall back to a fresh engine and replay the whole WAL.
			fmt.Fprintf(logw, "radlocd: discarding unusable checkpoint (applied %d): %v\n", ck.Applied, ierr)
			d.recovery.CheckpointDiscarded = true
			if engine, err = build(j); err != nil {
				l.Close()
				return nil, nil, err
			}
			d.engine = engine
		} else {
			d.recovery.CheckpointUsed = true
			d.recovery.CheckpointApplied = ck.Applied
			d.lastApplied = ck.Applied
			replayFrom = ck.Applied
		}
	}
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
		engine.Replay(fusion.Meas{SensorID: rec.SensorID, CPM: rec.CPM, Step: rec.Step, Seq: rec.Seq})
		d.recovery.Replayed++
		return nil
	}); err != nil {
		l.Close()
		return nil, nil, fmt.Errorf("replay WAL %s: %w", dir, err)
	}
	// From here on the engine's journal counter IS the WAL offset; each
	// Append advances both in lockstep.
	engine.SetJournalOffset(l.Offset())
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
	if d == nil || d.every <= 0 {
		return
	}
	d.j.mu.Lock()
	off := d.j.log.Offset()
	d.j.mu.Unlock()
	d.mu.Lock()
	due := off >= d.lastApplied+uint64(d.every)
	d.mu.Unlock()
	if !due {
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
	defer func() { d.met.done(t0, st.Journaled, err) }()
	if err != nil {
		return err
	}
	blob, err := json.Marshal(st)
	if err != nil {
		return err
	}
	d.j.mu.Lock()
	err = d.j.log.Sync()
	d.j.mu.Unlock()
	if err != nil {
		return err
	}
	if err := wal.WriteCheckpointFS(d.fs, d.dir, wal.Checkpoint{Applied: st.Journaled, State: blob}); err != nil {
		return err
	}
	_ = wal.PruneCheckpointsFS(d.fs, d.dir, 2)
	d.mu.Lock()
	if st.Journaled != d.lastApplied {
		d.prevApplied = d.lastApplied
		d.lastApplied = st.Journaled
	}
	pruneTo := d.prevApplied
	d.mu.Unlock()
	d.j.mu.Lock()
	err = d.j.log.Prune(pruneTo)
	d.j.mu.Unlock()
	return err
}

// close flushes everything: final checkpoint, then sync and close the
// WAL. Called on graceful shutdown; after a crash, recovery does the
// equivalent from disk.
func (d *durable) close() error {
	if d == nil {
		return nil
	}
	err := d.checkpoint()
	d.j.mu.Lock()
	cerr := d.j.log.Close()
	d.j.mu.Unlock()
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
// snapshot; d may be nil (durability off), ing may be nil (the
// per-zone view, which carries no admission counters).
func statez(s fusion.Snapshot, d *durable, ing *httpingest.Handler) statezJSON {
	out := statezJSON{Delivery: s.Delivery, Journaled: s.Journaled}
	if ing != nil {
		out.Ingress = ing.Stats()
	}
	if d == nil {
		return out
	}
	d.j.mu.Lock()
	off := d.j.log.Offset()
	d.j.mu.Unlock()
	d.mu.Lock()
	rec := d.recovery
	out.Durability = durabilityJSON{
		Enabled:        true,
		WalDir:         d.dir,
		Fsync:          d.fsync.String(),
		WalOffset:      off,
		Checkpoints:    d.met.checkpoints.Value(),
		LastCheckpoint: d.lastApplied,
		Recovery:       &rec,
		Degraded:       d.degraded,
		DegradedTotal:  d.degradedTotal,
		LastStorageErr: d.lastStorageErr,
	}
	if d.degraded {
		out.Durability.DegradedSince = d.degradedSince
	}
	d.mu.Unlock()
	return out
}
