package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"radloc/internal/cluster"
	"radloc/internal/fusion"
	"radloc/internal/vfs"
	"radloc/internal/wal"
	"radloc/internal/zone"
)

// zoneBackend implements cluster.Backend over one zone's engine and
// durability plumbing. Each cluster operation resolves a fresh
// backend through clusterBackend, so an evicted-and-recreated zone is
// always addressed through its live incarnation. Operations that touch
// the engine or the log run on the zone's event loop through Do; the
// WAL head is read from the published snapshot.
type zoneBackend struct {
	zs *zoneSet
	z  *zone.Zone
	d  *durable
}

// clusterBackend is the cluster.BackendResolver: it routes through
// the zone manager, so a replication target instantiates (and
// recovers from its own WAL) exactly like a write target would.
// Cluster mode requires a WAL (New refuses it without one), so every
// zone it resolves has one.
func (zs *zoneSet) clusterBackend(name string) (cluster.Backend, error) {
	z, err := zs.manager.Get(name)
	if err != nil {
		return nil, err
	}
	return &zoneBackend{zs: zs, z: z, d: zoneDurable(z)}, nil
}

// Offset implements cluster.Backend: the WAL head as of the loop's
// latest operation (the engine's journal counter, which each append
// advances in lockstep with the log).
func (b *zoneBackend) Offset() uint64 {
	return b.z.Snapshot().Journaled
}

// errStopRead is the sentinel ReadWAL uses to stop Replay at max
// records; it never escapes.
var errStopRead = errors.New("stop")

// ReadWAL implements cluster.Backend by copying up to max entries out
// of the zone's log on its event loop. Replay numbers records by their
// position in each segment, so a gap between segments (a quarantined
// segment, a log re-aligned past a checkpoint) is the only place the
// offsets jump; the read stops there, and a pull starting in the gap
// is told to bootstrap.
func (b *zoneBackend) ReadWAL(from uint64, max int) ([]wal.Entry, error) {
	var out []wal.Entry
	err := b.z.Do(context.TODO(), func(*fusion.Engine) error {
		if from < b.d.log.Oldest() {
			return cluster.ErrPruned
		}
		err := b.d.log.Replay(from, func(off uint64, e wal.Entry) error {
			switch {
			case off != from+uint64(len(out)) && len(out) == 0:
				return cluster.ErrPruned
			case off != from+uint64(len(out)), len(out) >= max:
				return errStopRead
			}
			out = append(out, e)
			return nil
		})
		if err == errStopRead {
			return nil
		}
		return err
	})
	return out, err
}

// SetRetainFloor implements cluster.Backend; a no-op for a zone that
// has closed: its successor reopens the log with no floor, and the
// replica's next pull parks it again.
func (b *zoneBackend) SetRetainFloor(off uint64) {
	_ = b.z.Do(context.TODO(), func(*fusion.Engine) error {
		b.d.log.SetRetain(off)
		return nil
	})
}

// ApplyRecords implements cluster.Backend by handing the replicated
// entries to the write pipeline's lower half — the same journal-then-
// replay path boot recovery uses, which is what makes a caught-up
// standby bit-identical to its primary.
func (b *zoneBackend) ApplyRecords(first uint64, entries []wal.Entry) error {
	return b.zs.pipe.Apply(b.z, first, entries)
}

// ExportState implements cluster.Backend.
func (b *zoneBackend) ExportState() ([]byte, uint64, error) {
	var st fusion.EngineState
	err := b.z.Do(context.TODO(), func(e *fusion.Engine) (err error) {
		st, err = e.ExportState()
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	blob, err := fusion.EncodeState(st)
	if err != nil {
		return nil, 0, err
	}
	return blob, st.Journaled, nil
}

// Bootstrap implements cluster.Backend: import the shipped state,
// fast-forward the local log to the offset it covers, and checkpoint
// immediately so a crash right after recovers into the snapshot, not
// an empty zone.
func (b *zoneBackend) Bootstrap(state []byte, applied uint64) error {
	st, err := fusion.DecodeState(state)
	if err != nil {
		return fmt.Errorf("bootstrap state: %w", err)
	}
	return b.z.Do(context.TODO(), func(e *fusion.Engine) error {
		if err := e.ImportState(st); err != nil {
			return err
		}
		if err := b.d.log.AlignTo(applied); err != nil {
			return err
		}
		return b.d.checkpoint()
	})
}

// Checkpoint implements cluster.Backend.
func (b *zoneBackend) Checkpoint() error {
	return b.z.Do(context.TODO(), func(*fusion.Engine) error { return b.d.checkpoint() })
}

// divergedDirName is where divergence repair parks the quarantined WAL
// suffix and any checkpoints that cover it, inside the zone's WAL
// directory.
const divergedDirName = "diverged"

// QuarantineDiverged implements cluster.Backend: the WAL suffix at or
// above floor is moved into <wal-dir>/diverged/ together with every
// checkpoint whose state already includes those records, and the log
// is truncated so the snapshot bootstrap that follows re-seeds from a
// clean prefix. Nothing is deleted — the quarantined files are the
// operator's evidence of what the old primary accepted after losing
// ownership (see the diverged/ runbook in the README). The repair
// runs on the zone's event loop, so no append interleaves with it.
func (b *zoneBackend) QuarantineDiverged(floor uint64) (moved uint64, err error) {
	err = b.z.Do(context.TODO(), func(e *fusion.Engine) (err error) {
		moved, err = b.quarantineDiverged(e, floor)
		return err
	})
	return moved, err
}

// quarantineDiverged is QuarantineDiverged on the zone's event loop.
func (b *zoneBackend) quarantineDiverged(e *fusion.Engine, floor uint64) (uint64, error) {
	d := b.d
	divDir := filepath.Join(d.dir, divergedDirName)
	moved, err := d.log.QuarantineSuffix(floor, divDir)
	if err != nil {
		return moved, err
	}
	// The engine's journal counter follows the truncated log head.
	e.SetJournalOffset(d.log.Offset())
	movedCkpts, err := wal.MoveCheckpointsFS(d.fs, d.dir, floor, divDir)
	if err != nil {
		return moved, err
	}
	// Forget checkpoint bookkeeping above the floor, so the next
	// checkpoint's prune floor cannot outrun the truncated log.
	last, prev := d.lastApplied, d.prevApplied
	if last > floor {
		last = 0
	}
	if prev > floor {
		prev = 0
	}
	d.setCheckpoints(last, prev)
	if moved > 0 || movedCkpts > 0 {
		writeDivergedNote(d.fs, divDir, floor, moved, movedCkpts)
		fmt.Fprintf(b.zs.cfg.Log, "radlocd: zone %q quarantined %d diverged WAL records and %d checkpoints into %s (floor %d)\n",
			b.z.Name(), moved, movedCkpts, divDir, floor)
	}
	return moved, nil
}

// writeDivergedNote drops a marker file next to the quarantined data
// so an operator finding the directory later knows when the repair
// ran, where the live log resumed, and how much was set aside.
// Best-effort: a failed note never fails the repair itself.
func writeDivergedNote(fsys vfs.FS, divDir string, floor, records uint64, ckpts int) {
	note := struct {
		Floor       uint64    `json:"floor"`
		Records     uint64    `json:"records"`
		Checkpoints int       `json:"checkpoints,omitempty"`
		At          time.Time `json:"at"`
	}{floor, records, ckpts, time.Now().UTC()}
	blob, err := json.MarshalIndent(note, "", "  ")
	if err != nil {
		return
	}
	name := fmt.Sprintf("DIVERGED-%016x.json", floor)
	path := filepath.Join(divDir, name)
	for i := 1; i < 1000; i++ {
		if _, err := fsys.Lstat(path); os.IsNotExist(err) {
			break
		}
		path = filepath.Join(divDir, fmt.Sprintf("%s.%d", name, i))
	}
	_ = vfs.WriteFile(fsys, path, append(blob, '\n'), 0o644)
}

// epochFileName holds a zone's fencing epoch next to its WAL.
const epochFileName = "cluster-epoch.json"

// fileEpochStore persists per-zone fencing epochs in each zone's WAL
// directory, written and synced atomically like checkpoints are.
// A node that was demoted and then restarts must not come back
// believing its old epoch.
type fileEpochStore struct {
	zs *zoneSet
}

// Load implements cluster.EpochStore; a missing file is a zero meta
// (the cluster layer treats that as epoch 1 with no history). A file
// from before epoch-start history — bare {"epoch":N} past the first
// epoch — is a retired format: Load fails naming it
// (cluster.ErrNoEpochStart), so boot stops instead of guessing the
// history.
func (s *fileEpochStore) Load(zone string) (cluster.EpochMeta, error) {
	path := filepath.Join(s.zs.zoneWalDir(zone), epochFileName)
	raw, err := s.zs.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return cluster.EpochMeta{}, nil
	}
	if err != nil {
		return cluster.EpochMeta{}, err
	}
	var meta cluster.EpochMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		// A torn or truncated epoch file must not block boot, but it must
		// not be silently destroyed either: quarantine it aside and start
		// at epoch 0 — the node rejoins humbly and adopts the cluster's
		// current epoch on first contact.
		fmt.Fprintf(s.zs.cfg.Log, "radlocd: corrupt %s for zone %q moved to %s, starting at epoch 0: %v\n",
			epochFileName, zone, setAside(s.zs.fs, path), err)
		return cluster.EpochMeta{}, nil
	}
	if err := meta.Check(); err != nil {
		return cluster.EpochMeta{}, fmt.Errorf("%s: %w", path, err)
	}
	return meta, nil
}

// setAside moves a corrupt store file to a collision-safe .bad sibling
// and returns where it went, for the log line.
func setAside(fsys vfs.FS, path string) string {
	bad, err := wal.SetAside(fsys, path)
	if err != nil {
		return fmt.Sprintf("nowhere (rename failed: %v)", err)
	}
	return bad
}

// Save implements cluster.EpochStore.
func (s *fileEpochStore) Save(zone string, meta cluster.EpochMeta) error {
	dir := s.zs.zoneWalDir(zone)
	if err := s.zs.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(s.zs.fs, filepath.Join(dir, epochFileName), blob)
}

// routesFileName persists the learned routing table at the WAL root.
// The static -cluster-routes file is only the seed; ownership moves
// learned from peers must survive a restart, or a rebooted node would
// come back believing a stale topology.
const routesFileName = "cluster-routes.json"

// fileRouteStore persists the learned routing table in one directory
// (the WAL root), written atomically like the epoch file.
type fileRouteStore struct {
	dir  string
	fs   vfs.FS
	logw io.Writer
}

// Load implements cluster.RouteStore; a missing file is an empty
// table. A corrupt file is set aside to .bad and treated as empty —
// the table is re-learned from peers, so losing the cache is safe.
func (s *fileRouteStore) Load() (cluster.Routes, error) {
	path := filepath.Join(s.dir, routesFileName)
	raw, err := vfs.Or(s.fs).ReadFile(path)
	if os.IsNotExist(err) {
		return cluster.Routes{}, nil
	}
	if err != nil {
		return cluster.Routes{}, err
	}
	var r cluster.Routes
	if err := json.Unmarshal(raw, &r); err != nil {
		fmt.Fprintf(s.logw, "radlocd: corrupt %s moved to %s, relearning routes from peers: %v\n",
			routesFileName, setAside(s.fs, path), err)
		return cluster.Routes{}, nil
	}
	return r, nil
}

// Save implements cluster.RouteStore.
func (s *fileRouteStore) Save(r cluster.Routes) error {
	fsys := vfs.Or(s.fs)
	if err := fsys.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return vfs.WriteFileAtomic(fsys, filepath.Join(s.dir, routesFileName), blob)
}
