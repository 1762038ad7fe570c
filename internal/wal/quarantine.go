package wal

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"radloc/internal/vfs"
)

// QuarantineSuffix moves every record with offset ≥ floor out of the
// live log and into dstDir, truncating the log so its head becomes
// floor. The moved bytes keep their on-disk envelope format, so the
// quarantined files replay with the same tools as live segments. This
// is the divergence-repair primitive: a resurrected primary whose
// unshipped suffix conflicts with a newer epoch's history must not
// keep it in the replay path, but must not delete it either — an
// operator may want to inspect or re-ingest it.
//
// Whole segments at or above floor are renamed into dstDir; a segment
// straddling floor is split — its suffix copied into dstDir as a new
// wal-%016x.ndjson named by floor, its prefix kept via an atomic
// rewrite. Name collisions in dstDir get a numeric suffix, so repeated
// quarantines never overwrite earlier evidence. Returns the number of
// records moved.
//
// The caller is expected to re-seed state afterwards (Bootstrap /
// AlignTo): the log itself only guarantees that replay now stops at
// floor and new appends continue from it.
func (l *Log) QuarantineSuffix(floor uint64, dstDir string) (uint64, error) {
	if l.f == nil {
		return 0, fmt.Errorf("wal: log closed")
	}
	if floor >= l.next {
		return 0, nil
	}
	if err := l.syncTail(); err != nil {
		return 0, err
	}
	if err := l.f.Close(); err != nil {
		return 0, err
	}
	l.f = nil
	if err := l.fs.MkdirAll(dstDir, 0o755); err != nil {
		return 0, err
	}

	var moved uint64
	var kept []segment
	for _, seg := range l.segments {
		end := seg.start + seg.count
		switch {
		case end <= floor:
			kept = append(kept, seg)
		case seg.start >= floor:
			// Entirely above the floor: move the whole file.
			dst, err := uniquePath(l.fs, dstDir, filepath.Base(seg.path))
			if err != nil {
				return moved, err
			}
			if err := l.fs.Rename(seg.path, dst); err != nil {
				return moved, err
			}
			moved += seg.count
		default:
			// Straddles the floor: copy the suffix out, rewrite the
			// prefix in place (tmp + rename, so a crash mid-split
			// leaves either the old file or the new one, never a torn
			// mix).
			n, prefixBytes, err := splitSegment(l.fs, seg, floor, dstDir)
			if err != nil {
				return moved, err
			}
			moved += n
			kept = append(kept, segment{start: seg.start, count: floor - seg.start, bytes: prefixBytes, path: seg.path})
		}
	}
	if l.opts.Fsync != FsyncNever {
		if err := vfs.SyncDir(l.fs, dstDir); err != nil {
			return moved, err
		}
		if err := vfs.SyncDir(l.fs, l.dir); err != nil {
			return moved, err
		}
	}

	l.segments = kept
	if floor < l.next {
		l.next = floor
	}
	if err := l.openTail(); err != nil {
		return moved, err
	}
	l.met.layout(len(l.segments), l.next)
	return moved, nil
}

// splitSegment copies the records of seg with offset ≥ floor into a
// new segment file in dstDir and truncates seg's file to the prefix
// below floor. Returns the number of records copied out and the byte
// length of the kept prefix.
func splitSegment(fsys vfs.FS, seg segment, floor uint64, dstDir string) (uint64, int64, error) {
	src, err := fsys.Open(seg.path)
	if err != nil {
		return 0, 0, err
	}
	defer src.Close()

	dstName, err := uniquePath(fsys, dstDir, fmt.Sprintf("%s%016x%s", segPrefix, floor, segSuffix))
	if err != nil {
		return 0, 0, err
	}
	dst, err := fsys.OpenFile(dstName, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, 0, err
	}
	tmpName := seg.path + ".tmp"
	tmp, err := fsys.OpenFile(tmpName, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		_ = dst.Close()
		return 0, 0, err
	}

	dw := bufio.NewWriterSize(dst, 64<<10)
	tw := bufio.NewWriterSize(tmp, 64<<10)
	var movedRecs uint64
	var prefixBytes int64
	fail := func(err error) (uint64, int64, error) {
		_ = dst.Close()
		_ = tmp.Close()
		_ = fsys.Remove(tmpName)
		return 0, 0, err
	}
	// A refresh entry goes wherever the reading before it went.
	sc := NewScanner(io.LimitReader(src, seg.bytes))
	off, w := seg.start, tw
	for sc.Scan() {
		switch {
		case sc.kind == readingLine && off >= floor:
			w = dw
			movedRecs++
			off++
		case sc.kind == readingLine:
			off++
		case sc.kind == badLine:
			return fail(fmt.Errorf("wal: segment %s corrupt at offset %d", seg.path, off))
		}
		if w == tw {
			prefixBytes += int64(len(sc.line))
		}
		if _, err := w.Write(sc.line); err != nil {
			return fail(err)
		}
	}
	switch sc.err {
	case nil:
	case io.ErrUnexpectedEOF:
		return fail(fmt.Errorf("wal: segment %s corrupt at offset %d", seg.path, off))
	default:
		return fail(sc.err)
	}
	if off != seg.start+seg.count {
		return fail(fmt.Errorf("wal: segment %s short at offset %d", seg.path, off))
	}
	if err := dw.Flush(); err != nil {
		return fail(err)
	}
	if err := dst.Sync(); err != nil {
		return fail(err)
	}
	if err := dst.Close(); err != nil {
		return fail(err)
	}
	if err := tw.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := fsys.Rename(tmpName, seg.path); err != nil {
		return fail(err)
	}
	return movedRecs, prefixBytes, nil
}

// SegmentInfo describes one live segment for external inspection —
// the integrity scrubber's work list.
type SegmentInfo struct {
	// Start is the offset of the segment's first record.
	Start uint64 `json:"start"`
	// Count is the number of records in the segment.
	Count uint64 `json:"count"`
	// Bytes is the valid byte length of the file.
	Bytes int64 `json:"bytes"`
	// Sealed is false only for the active tail, which is still being
	// appended to and is not a scrub target.
	Sealed bool `json:"sealed"`
}

// SegmentInfos lists the live segments in offset order; the last
// entry is the active tail (Sealed=false).
func (l *Log) SegmentInfos() []SegmentInfo {
	out := make([]SegmentInfo, 0, len(l.segments))
	for i, seg := range l.segments {
		out = append(out, SegmentInfo{
			Start:  seg.start,
			Count:  seg.count,
			Bytes:  seg.bytes,
			Sealed: i != len(l.segments)-1,
		})
	}
	return out
}

// VerifySegment re-reads the segment whose first record sits at start
// and re-verifies every record's CRC envelope. A nil return means the
// segment still holds exactly its accounted records; an error names
// the first offset that no longer decodes — cold corruption (a
// bit-flip after the original durable write) that recovery-time
// validation can never see because the file was valid when opened.
func (l *Log) VerifySegment(start uint64) error {
	for _, seg := range l.segments {
		if seg.start != start {
			continue
		}
		count, goodBytes, badRecs, err := validateSegment(l.fs, seg.path)
		if err != nil {
			return err
		}
		if count < seg.count || badRecs > 0 {
			return fmt.Errorf("wal: segment %s corrupt at offset %d (%d of %d records verify, %d bad)",
				seg.path, seg.start+count, count, seg.count, badRecs)
		}
		_ = goodBytes
		return nil
	}
	return fmt.Errorf("wal: no segment starting at offset %d", start)
}

// QuarantineSegment renames the sealed segment starting at start into
// dstDir (collision-safe) and drops it from the log's bookkeeping.
// Replay of the covered range becomes impossible — Oldest moves past
// it — so the caller must immediately re-anchor recovery (write a
// fresh checkpoint at or past the segment's end, or re-seed from a
// replica). The active tail is refused. Returns the number of records
// set aside.
func (l *Log) QuarantineSegment(start uint64, dstDir string) (uint64, error) {
	for i, seg := range l.segments {
		if seg.start != start {
			continue
		}
		if i == len(l.segments)-1 {
			return 0, fmt.Errorf("wal: refusing to quarantine the active tail at offset %d", start)
		}
		if err := l.fs.MkdirAll(dstDir, 0o755); err != nil {
			return 0, err
		}
		dst, err := uniquePath(l.fs, dstDir, filepath.Base(seg.path))
		if err != nil {
			return 0, err
		}
		if err := l.fs.Rename(seg.path, dst); err != nil {
			return 0, err
		}
		if l.opts.Fsync != FsyncNever {
			if err := vfs.SyncDir(l.fs, dstDir); err != nil {
				return seg.count, err
			}
			if err := vfs.SyncDir(l.fs, l.dir); err != nil {
				return seg.count, err
			}
		}
		l.segments = append(l.segments[:i], l.segments[i+1:]...)
		l.met.layout(len(l.segments), l.next)
		return seg.count, nil
	}
	return 0, fmt.Errorf("wal: no segment starting at offset %d", start)
}

// MoveCheckpointsFS moves every checkpoint in dir whose applied offset
// is above floor into dstDir through fsys and returns how many files
// moved. This is the checkpoint half of divergence repair: after
// QuarantineSuffix truncates the log to floor, any checkpoint covering
// more than floor records describes state that includes the
// quarantined suffix, and recovery must never re-seed from it. Like
// the quarantined segments, the files are preserved (renamed,
// collision-safe), not deleted.
func MoveCheckpointsFS(fsys vfs.FS, dir string, floor uint64, dstDir string) (int, error) {
	fsys = vfs.Or(fsys)
	candidates, err := listCheckpoints(fsys, dir)
	if err != nil {
		return 0, err
	}
	moved := 0
	for _, applied := range candidates { // newest first
		if applied <= floor {
			break
		}
		if moved == 0 {
			if err := fsys.MkdirAll(dstDir, 0o755); err != nil {
				return 0, err
			}
		}
		path := CheckpointPath(dir, applied)
		dst, err := uniquePath(fsys, dstDir, filepath.Base(path))
		if err != nil {
			return moved, err
		}
		if err := fsys.Rename(path, dst); err != nil {
			return moved, err
		}
		moved++
	}
	if moved > 0 {
		if err := vfs.SyncDir(fsys, dstDir); err != nil {
			return moved, err
		}
		if err := vfs.SyncDir(fsys, dir); err != nil {
			return moved, err
		}
	}
	return moved, nil
}

// SetAside renames the file at path to a collision-safe ".bad"
// sibling through fsys — a second set-aside of the same name lands at
// ".bad.1", and so on — so a corrupt file stops being trusted without
// destroying it or any earlier one. It returns where the file went.
func SetAside(fsys vfs.FS, path string) (string, error) {
	fsys = vfs.Or(fsys)
	dst, err := uniquePath(fsys, filepath.Dir(path), filepath.Base(path)+".bad")
	if err != nil {
		return "", err
	}
	return dst, fsys.Rename(path, dst)
}

// uniquePath returns a path in dir based on name that does not exist
// yet, appending ".N" before giving up after 1000 tries.
func uniquePath(fsys vfs.FS, dir, name string) (string, error) {
	p := filepath.Join(dir, name)
	if _, err := fsys.Lstat(p); os.IsNotExist(err) {
		return p, nil
	}
	for i := 1; i < 1000; i++ {
		q := fmt.Sprintf("%s.%d", p, i)
		if _, err := fsys.Lstat(q); os.IsNotExist(err) {
			return q, nil
		}
	}
	return "", fmt.Errorf("wal: no free quarantine name for %s", p)
}
