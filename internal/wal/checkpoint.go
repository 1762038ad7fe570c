package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	Applied uint64
	// State is the engine's opaque serialized state.
	State []byte
}

// The file names keep the .json suffix of the original JSON envelope:
// renaming them would make every scan look for two suffixes and buy
// nothing.
const ckptPrefix, ckptSuffix = "checkpoint-", ".json"

// CheckpointPath is the file the checkpoint covering the first applied
// records lives in, within dir.
func CheckpointPath(dir string, applied uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", ckptPrefix, applied, ckptSuffix))
}

// ckptMagic opens the binary checkpoint envelope:
//
//	magic "RLCK" | applied uint64 | CRC32 of the state uint32 | state
//
// with the integers little-endian.
const ckptMagic = "RLCK"

// ckptHeader is the binary envelope's length before the state.
const ckptHeader = len(ckptMagic) + 8 + 4

// retiredPrefix opens the JSON envelope {"crc","applied","state"} that
// releases before the binary envelope wrote. It is no longer read.
const retiredPrefix = `{"crc":`

// ErrRetiredCheckpoint reports a checkpoint in the retired JSON
// envelope. Recovery refuses it rather than skipping it: the WAL below
// it may be pruned, so falling back to an older checkpoint, or none,
// would silently lose state.
var ErrRetiredCheckpoint = errors.New("wal: checkpoint in the retired JSON envelope, no longer read")

// encodeCheckpoint renders ck in the binary envelope.
func encodeCheckpoint(ck Checkpoint) []byte {
	blob := make([]byte, ckptHeader+len(ck.State))
	copy(blob, ckptMagic)
	binary.LittleEndian.PutUint64(blob[len(ckptMagic):], ck.Applied)
	binary.LittleEndian.PutUint32(blob[len(ckptMagic)+8:], crc32.Checksum(ck.State, crcTable))
	copy(blob[ckptHeader:], ck.State)
	return blob
}

// decodeCheckpoint parses a checkpoint file in the binary envelope and
// verifies its CRC and that it covers applied, the offset its name
// claims. The returned state aliases blob.
func decodeCheckpoint(blob []byte, applied uint64) (Checkpoint, bool) {
	if !bytes.HasPrefix(blob, []byte(ckptMagic)) || len(blob) < ckptHeader {
		return Checkpoint{}, false
	}
	ck := Checkpoint{
		Applied: binary.LittleEndian.Uint64(blob[len(ckptMagic):]),
		State:   blob[ckptHeader:],
	}
	crc := binary.LittleEndian.Uint32(blob[len(ckptMagic)+8:])
	if ck.Applied != applied || crc32.Checksum(ck.State, crcTable) != crc {
		return Checkpoint{}, false
	}
	return ck, true
}

// listCheckpoints returns the applied offsets of the checkpoint files
// in dir, newest first. Only canonical names count — the ones
// checkpointPath produces; a missing dir holds none.
func listCheckpoints(fsys vfs.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var applied []uint64
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, ckptPrefix) || !strings.HasSuffix(name, ckptSuffix) {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
		a, perr := strconv.ParseUint(hexpart, 16, 64)
		if perr != nil || CheckpointPath(dir, a) != filepath.Join(dir, name) {
			continue
		}
		applied = append(applied, a)
	}
	sort.Slice(applied, func(i, j int) bool { return applied[i] > applied[j] })
	return applied, nil
}

// WriteCheckpointFS atomically persists a checkpoint into dir
// (write-to-temp, fsync, rename, fsync dir) through fsys, in the
// binary envelope. The caller MUST have Sync'd the WAL through Applied
// first — a checkpoint that refers to records the log could still
// lose is a lie. Every error on the way — write, sync, close, rename —
// is propagated: a checkpoint either exists whole or reports why it
// does not.
func WriteCheckpointFS(fsys vfs.FS, dir string, ck Checkpoint) error {
	return vfs.WriteFileAtomic(fsys, CheckpointPath(dir, ck.Applied), encodeCheckpoint(ck))
}

// LoadCheckpointFS returns the newest valid checkpoint in dir through
// fsys. Corrupt candidates are skipped (renamed aside to a
// collision-safe .bad sibling, as QuarantineCheckpoint does), walking
// back to older ones; unreadable ones are skipped in place; ok=false
// means no usable checkpoint exists — cold start from WAL offset 0. A
// candidate in the retired JSON envelope fails the load with
// ErrRetiredCheckpoint, naming the file, and is left in place.
func LoadCheckpointFS(fsys vfs.FS, dir string) (ck Checkpoint, ok bool, err error) {
	fsys = vfs.Or(fsys)
	candidates, err := listCheckpoints(fsys, dir)
	if err != nil {
		return Checkpoint{}, false, err
	}
	for _, applied := range candidates {
		blob, rerr := fsys.ReadFile(CheckpointPath(dir, applied))
		if rerr != nil {
			continue
		}
		if ck, ok := decodeCheckpoint(blob, applied); ok {
			return ck, true, nil
		}
		if bytes.HasPrefix(blob, []byte(retiredPrefix)) {
			return Checkpoint{}, false, fmt.Errorf("%s: %w", CheckpointPath(dir, applied), ErrRetiredCheckpoint)
		}
		// Corrupt: move aside and fall back to the previous one.
		_ = QuarantineCheckpoint(fsys, dir, applied)
	}
	return Checkpoint{}, false, nil
}

// VerifyCheckpoints re-validates every checkpoint file in dir through
// fsys, returning the applied offsets of the ones whose envelope no
// longer checks out, ascending. Nothing is moved or repaired — this is
// the integrity scrubber's read-only detection pass; quarantine and
// repair are the caller's decisions.
func VerifyCheckpoints(fsys vfs.FS, dir string) (bad []uint64, err error) {
	fsys = vfs.Or(fsys)
	candidates, err := listCheckpoints(fsys, dir)
	if err != nil {
		return nil, err
	}
	for i := len(candidates) - 1; i >= 0; i-- {
		applied := candidates[i]
		blob, rerr := fsys.ReadFile(CheckpointPath(dir, applied))
		if rerr != nil {
			bad = append(bad, applied)
			continue
		}
		if _, ok := decodeCheckpoint(blob, applied); !ok {
			bad = append(bad, applied)
		}
	}
	return bad, nil
}

// QuarantineCheckpoint renames the checkpoint at applied to a .bad
// sibling through fsys (collision-safe), so recovery stops trusting
// it without destroying the evidence. Used by the scrubber when a
// cold checkpoint fails re-verification.
func QuarantineCheckpoint(fsys vfs.FS, dir string, applied uint64) error {
	_, err := SetAside(fsys, CheckpointPath(dir, applied))
	return err
}

// PruneCheckpointsFS removes all but the newest keep valid-looking
// checkpoints (by name; content is not re-validated) through fsys.
func PruneCheckpointsFS(fsys vfs.FS, dir string, keep int) error {
	fsys = vfs.Or(fsys)
	if keep < 1 {
		keep = 1
	}
	candidates, err := listCheckpoints(fsys, dir)
	if err != nil || len(candidates) <= keep {
		return err
	}
	for _, applied := range candidates[keep:] {
		if err := fsys.Remove(CheckpointPath(dir, applied)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
