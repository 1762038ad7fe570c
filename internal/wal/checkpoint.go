package wal

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"radloc/internal/vfs"
)

// Checkpoint is one durable engine snapshot: the serialized engine
// state after applying the first Applied journaled records. Recovery
// loads the newest valid checkpoint and replays the WAL from Applied.
type Checkpoint struct {
	// Applied is the WAL offset this state corresponds to.
	Applied uint64 `json:"applied"`
	// State is the engine's opaque serialized state.
	State json.RawMessage `json:"state"`
}

const ckptPrefix, ckptSuffix = "checkpoint-", ".json"

func checkpointPath(dir string, applied uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, applied, ckptSuffix))
}

type ckptEnvelope struct {
	CRC     uint32          `json:"crc"`
	Applied uint64          `json:"applied"`
	State   json.RawMessage `json:"state"`
}

// WriteCheckpointFS atomically persists a checkpoint into dir
// (write-to-temp, fsync, rename, fsync dir) through fsys. The caller
// MUST have Sync'd the WAL through Applied first — a checkpoint that
// refers to records the log could still lose is a lie. Every error on
// the way — write, sync, close, rename — is propagated: a checkpoint
// either exists whole or reports why it does not.
func WriteCheckpointFS(fsys vfs.FS, dir string, ck Checkpoint) error {
	fsys = vfs.Or(fsys)
	env := ckptEnvelope{
		CRC:     crc32.Checksum(ck.State, crcTable),
		Applied: ck.Applied,
		State:   ck.State,
	}
	blob, err := json.Marshal(env)
	if err != nil {
		return err
	}
	tmp, err := fsys.CreateTemp(dir, ckptPrefix+"tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer fsys.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(blob); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmpName, checkpointPath(dir, ck.Applied)); err != nil {
		return err
	}
	return syncDirFS(fsys, dir)
}

// LoadCheckpointFS returns the newest valid checkpoint in dir through
// fsys. Corrupt or unreadable candidates are skipped (renamed aside),
// walking back to older ones; ok=false means no usable checkpoint
// exists — cold start from WAL offset 0.
func LoadCheckpointFS(fsys vfs.FS, dir string) (ck Checkpoint, ok bool, err error) {
	fsys = vfs.Or(fsys)
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return Checkpoint{}, false, nil
		}
		return Checkpoint{}, false, err
	}
	var candidates []uint64
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
		applied, perr := strconv.ParseUint(hexpart, 16, 64)
		if perr != nil || checkpointPath(dir, applied) != filepath.Join(dir, name) {
			continue
		}
		candidates = append(candidates, applied)
	}
	sort.Slice(candidates, func(a, b int) bool { return candidates[a] > candidates[b] })
	for _, applied := range candidates {
		path := checkpointPath(dir, applied)
		blob, rerr := fsys.ReadFile(path)
		if rerr != nil {
			continue
		}
		var env ckptEnvelope
		if json.Unmarshal(blob, &env) != nil ||
			env.Applied != applied ||
			crc32.Checksum(env.State, crcTable) != env.CRC {
			// Corrupt: move aside and fall back to the previous one.
			_ = fsys.Rename(path, path+".bad")
			continue
		}
		return Checkpoint{Applied: env.Applied, State: env.State}, true, nil
	}
	return Checkpoint{}, false, nil
}

// VerifyCheckpoints re-validates every checkpoint file in dir through
// fsys, returning the applied offsets of the ones whose CRC envelope
// no longer checks out. Nothing is moved or repaired — this is the
// integrity scrubber's read-only detection pass; quarantine and
// repair are the caller's decisions.
func VerifyCheckpoints(fsys vfs.FS, dir string) (bad []uint64, err error) {
	fsys = vfs.Or(fsys)
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
		applied, perr := strconv.ParseUint(hexpart, 16, 64)
		if perr != nil || checkpointPath(dir, applied) != filepath.Join(dir, name) {
			continue
		}
		blob, rerr := fsys.ReadFile(filepath.Join(dir, name))
		if rerr != nil {
			bad = append(bad, applied)
			continue
		}
		var env ckptEnvelope
		if json.Unmarshal(blob, &env) != nil ||
			env.Applied != applied ||
			crc32.Checksum(env.State, crcTable) != env.CRC {
			bad = append(bad, applied)
		}
	}
	sort.Slice(bad, func(a, b int) bool { return bad[a] < bad[b] })
	return bad, nil
}

// QuarantineCheckpoint renames the checkpoint at applied to a .bad
// sibling through fsys (collision-safe), so recovery stops trusting
// it without destroying the evidence. Used by the scrubber when a
// cold checkpoint fails re-verification.
func QuarantineCheckpoint(fsys vfs.FS, dir string, applied uint64) error {
	fsys = vfs.Or(fsys)
	path := checkpointPath(dir, applied)
	dst, err := uniquePath(fsys, dir, filepath.Base(path)+".bad")
	if err != nil {
		return err
	}
	return fsys.Rename(path, dst)
}

// PruneCheckpointsFS removes all but the newest keep valid-looking
// checkpoints (by name; content is not re-validated) through fsys.
func PruneCheckpointsFS(fsys vfs.FS, dir string, keep int) error {
	fsys = vfs.Or(fsys)
	if keep < 1 {
		keep = 1
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	var candidates []uint64
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
		applied, perr := strconv.ParseUint(hexpart, 16, 64)
		if perr != nil || checkpointPath(dir, applied) != filepath.Join(dir, name) {
			continue
		}
		candidates = append(candidates, applied)
	}
	if len(candidates) <= keep {
		return nil
	}
	sort.Slice(candidates, func(a, b int) bool { return candidates[a] > candidates[b] })
	for _, applied := range candidates[keep:] {
		if err := fsys.Remove(checkpointPath(dir, applied)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
