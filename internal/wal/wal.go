// Package wal is radlocd's crash-safe durability layer: a segmented,
// checksummed, append-only write-ahead log of accepted measurements,
// plus atomic checkpoints of the fusion engine's serialized state.
//
// The contract mirrors the classic database recipe. Every reading the
// engine accepts is appended (and, per the fsync policy, made durable)
// BEFORE it is folded into the filter; a checkpoint records the
// engine state after the first Applied records; recovery loads the
// newest valid checkpoint and replays the WAL suffix through the same
// ingest code path. Because the filter is a deterministic function of
// the accepted measurement sequence (including its RNG position,
// which the checkpoint captures), replay reconstructs the pre-crash
// posterior exactly.
//
// The on-disk format is line-oriented NDJSON so operators can inspect
// it with standard tools: each reading is {"crc":<uint32>,"rec":{...}}
// where crc is CRC-32 (IEEE) over the raw rec bytes (line.go has the
// grammar). A reading may be followed by a refresh entry,
// {"crc":<uint32>,"refresh":[...]}, holding the estimates the engine
// computed right after it, so replay adopts them instead of running
// the search again. Offsets count readings only: a refresh entry takes
// none. Segments are named wal-%016x.ndjson by the offset (global
// record index) of their first record. Torn or corrupt tails are
// truncated on open, never fatal: crash-mid-write loses at most the
// records the fsync policy already allowed to be lost.
//
// All filesystem access goes through an injectable vfs.FS (Options.FS,
// default the real filesystem), and a failed append is transactional:
// the log truncates any partial bytes back out and reports the error,
// so the record is either fully durable or provably absent — the
// property radlocd's degraded read-only mode is built on. Probe
// retries a wedged log in place once the disk heals.
package wal

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"radloc/internal/obs"
	"radloc/internal/vfs"
)

// Record is one sensor reading — the only type that declares a
// reading's fields. The WAL journals it, and the layers above alias it
// rather than copy it: fusion.Meas at the engine's ingest boundary,
// transport.Reading in the agent's spool and on the wire, and the
// body of httpingest.Measurement. It lives here, the lowest of those
// layers, so every dependency points down to it.
type Record struct {
	SensorID int    `json:"sensorId"`       // deployment index of the reporting sensor
	CPM      int    `json:"cpm"`            // Geiger counts per minute for this interval
	Step     int    `json:"step,omitempty"` // discrete time step of the reading
	Seq      uint64 `json:"seq,omitempty"`  // per-sensor monotone sequence number; 0 = unsequenced
}

// Estimate is one source estimate as a refresh entry journals it: the
// fields of the engine's estimate, bit for bit.
type Estimate struct {
	X        float64 `json:"x"`        // estimated source position, x
	Y        float64 `json:"y"`        // estimated source position, y
	Strength float64 `json:"strength"` // µCi
	Mass     float64 `json:"mass"`     // fraction of the particle mass in this mode
	Starts   int     `json:"starts"`   // mean-shift starts that converged here
}

// Entry is one journaled reading as Replay yields it. Refresh holds
// the estimates of the refresh entry journaled right after the
// reading, nil when there was none (no refresh fell due, or the entry
// was lost to a crash); a refresh that found no source is an empty,
// non-nil slice.
type Entry struct {
	Rec     Record     // the journaled reading
	Refresh []Estimate // the refresh entry after it; nil when there is none
}

// FsyncPolicy selects when appends are forced to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: no accepted reading is
	// ever lost, at per-record fsync cost.
	FsyncAlways FsyncPolicy = iota
	// FsyncBatch syncs on explicit Sync calls (the checkpointer and
	// shutdown path issue them) and on segment rotation. A crash can
	// lose the unsynced tail; recovery truncates it cleanly and the
	// at-least-once transport redelivers.
	FsyncBatch
	// FsyncNever never syncs (testing / throwaway replays).
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, batch or never)", s)
}

// String returns the flag-value spelling of the policy.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncBatch:
		return "batch"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("FsyncPolicy(%d)", int(p))
}

// Options tunes a Log.
type Options struct {
	// Fsync is the durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// SegmentRecords rotates to a new segment after this many records
	// (default 4096).
	SegmentRecords int
	// Metrics is the registry the log's counters and timing
	// histograms live on (radloc_wal_*); nil gets a private one.
	Metrics *obs.Registry
	// FS is the filesystem the log lives on. nil means the real
	// filesystem; tests and chaos runs inject vfs.Faulty here.
	FS vfs.FS
}

// RecoveryStats reports what opening an existing WAL directory found
// and repaired. Recovery never fails on bad data — it repairs and
// reports.
type RecoveryStats struct {
	// Segments is the number of valid segment files found.
	Segments int `json:"segments"`
	// Records is the number of valid records across them.
	Records uint64 `json:"records"`
	// TruncatedRecords counts corrupt or torn trailing records
	// discarded (CRC mismatch, malformed JSON, or a missing final
	// newline).
	TruncatedRecords uint64 `json:"truncatedRecords,omitempty"`
	// TruncatedBytes is the number of bytes cut from the log tail.
	TruncatedBytes int64 `json:"truncatedBytes,omitempty"`
	// DroppedSegments counts whole segment files discarded because
	// they sat beyond a corrupt tail or carried unparsable names.
	DroppedSegments int `json:"droppedSegments,omitempty"`
}

// Log is an append-only record log over one directory. Methods are not
// safe for concurrent use: a Log has one owner goroutine, which makes
// every call. In the daemon that is the zone's event loop, which also
// owns the fusion engine, so WAL order is application order and
// replication reads, scrubs, probes and prunes run between appends,
// never beside them.
type Log struct {
	dir      string
	fs       vfs.FS
	opts     Options
	segments []segment // sorted by start; last one is the active tail
	next     uint64    // offset the next appended record will get
	retain   uint64    // Prune floor: records ≥ retain survive (replication)
	f        vfs.File  // active tail segment, opened for append
	dirty    bool      // unsynced readings outstanding (refresh entries do not count)
	wedged   bool      // a failed append left bytes we could not truncate away
	afterRec bool      // the last line written since Open is a reading (AppendRefresh may follow)
	line     []byte    // Append's reused encode buffer
	met      *walMetrics
}

type segment struct {
	start uint64 // offset of the first record
	count uint64 // valid records (readings) in the file
	bytes int64  // valid bytes in the file, refresh entries included (the replayable prefix)
	path  string
}

const segPrefix, segSuffix = "wal-", ".ndjson"

// maxLine bounds a valid line, trailing newline included: the readers
// buffer this much, and a longer line reads as corrupt. A reading is
// far below it; AppendRefresh refuses an entry above it.
const maxLine = 64 << 10

func segmentPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", segPrefix, start, segSuffix))
}

var crcTable = crc32.IEEETable

// Open opens (creating if needed) the WAL in dir, validates every
// segment, truncates any torn or corrupt tail, and positions the log
// to append after the last valid record. Bad data is repaired and
// reported in RecoveryStats, never returned as an error; errors are
// reserved for the filesystem refusing to cooperate. A read error is
// not bad data: it fails Open before any segment is truncated, so an
// I/O fault at boot never passes for a torn tail.
func Open(dir string, opts Options) (*Log, RecoveryStats, error) {
	if opts.SegmentRecords <= 0 {
		opts.SegmentRecords = 4096
	}
	fsys := vfs.Or(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryStats{}, err
	}
	l := &Log{dir: dir, fs: fsys, opts: opts, retain: ^uint64(0), met: newWALMetrics(obs.Or(opts.Metrics))}
	stats, err := l.recover()
	if err != nil {
		return nil, stats, err
	}
	if err := l.openTail(); err != nil {
		return nil, stats, err
	}
	l.met.truncatedRecords.Add(stats.TruncatedRecords)
	l.met.droppedSegments.Add(uint64(stats.DroppedSegments))
	l.met.layout(len(l.segments), l.next)
	return l, stats, nil
}

// recover scans the directory, validates segments in offset order and
// truncates at the first invalid record, dropping everything after it.
func (l *Log) recover() (RecoveryStats, error) {
	var stats RecoveryStats
	entries, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return stats, err
	}
	var segs []segment
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
		start, perr := strconv.ParseUint(hexpart, 16, 64)
		if perr != nil || segmentPath(l.dir, start) != filepath.Join(l.dir, name) {
			// Unparsable or non-canonical name: quarantine rather than
			// guess at an offset.
			stats.DroppedSegments++
			_ = l.fs.Rename(filepath.Join(l.dir, name), filepath.Join(l.dir, name+".bad"))
			continue
		}
		segs = append(segs, segment{start: start, path: filepath.Join(l.dir, name)})
	}
	sort.Slice(segs, func(a, b int) bool { return segs[a].start < segs[b].start })

	var prevEnd uint64
	truncated := false
	for i := range segs {
		seg := &segs[i]
		if truncated || (i > 0 && seg.start < prevEnd) {
			// Beyond a corrupt tail, or overlapping the previous
			// segment's records: this data can't be trusted.
			stats.DroppedSegments++
			_ = l.fs.Remove(seg.path)
			seg.count = 0
			continue
		}
		count, goodBytes, badRecs, err := validateSegment(l.fs, seg.path)
		if err != nil {
			return stats, err
		}
		if badRecs > 0 {
			fi, statErr := l.fs.Stat(seg.path)
			if statErr == nil {
				stats.TruncatedBytes += fi.Size() - goodBytes
			}
			stats.TruncatedRecords += badRecs
			if err := l.fs.Truncate(seg.path, goodBytes); err != nil {
				return stats, err
			}
			truncated = true
		}
		if count == 0 && (badRecs > 0 || seg.start != 0) && i == len(segs)-1 {
			// Fully-torn tail segment: remove the empty husk unless it
			// is the sole genesis segment.
			if seg.start != 0 || len(segs) > 1 {
				_ = l.fs.Remove(seg.path)
				seg.count = 0
				if badRecs > 0 {
					stats.DroppedSegments++
				}
				continue
			}
		}
		seg.count = count
		seg.bytes = goodBytes
		prevEnd = seg.start + seg.count
		stats.Segments++
		stats.Records += count
	}
	for _, seg := range segs {
		if seg.count > 0 || (seg.start == 0 && len(segs) == 1) {
			l.segments = append(l.segments, seg)
		}
	}
	if n := len(l.segments); n > 0 {
		last := l.segments[n-1]
		l.next = last.start + last.count
	}
	return stats, nil
}

// validateSegment counts the valid prefix of one segment file:
// records, the byte length of that prefix, and how many invalid lines
// follow it. A refresh entry is valid only right after a reading; it
// adds to the prefix's bytes but not to its records. Any read error
// other than EOF is returned: only what was actually read can be
// judged torn or corrupt.
func validateSegment(fsys vfs.FS, path string) (records uint64, goodBytes int64, badRecs uint64, err error) {
	f, err := fsys.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	sc := NewScanner(f)
	for sc.Scan() {
		// From the first bad line on, everything is suspect: every
		// line after it counts as truncated too.
		if badRecs > 0 || sc.kind == badLine {
			badRecs++
			continue
		}
		if sc.kind == readingLine {
			records++
		}
		goodBytes += int64(len(sc.line))
	}
	switch sc.err {
	case nil:
	case io.ErrUnexpectedEOF:
		// A partial last line is a torn final write.
		badRecs++
	default:
		return records, goodBytes, badRecs, sc.err
	}
	return records, goodBytes, badRecs, nil
}

// openTail opens the active segment for appending, creating the
// genesis segment if the directory is empty.
func (l *Log) openTail() error {
	if len(l.segments) == 0 {
		l.segments = append(l.segments, segment{start: l.next, path: segmentPath(l.dir, l.next)})
	}
	tail := &l.segments[len(l.segments)-1]
	f, err := l.fs.OpenFile(tail.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.afterRec = false
	return nil
}

// Offset is the global record index the next Append will receive —
// equivalently, the number of records ever appended (valid after
// recovery truncation).
func (l *Log) Offset() uint64 { return l.next }

// Oldest is the offset of the oldest record still on disk — the floor
// of what Replay can stream. A replica asking for anything below it
// must bootstrap from a checkpoint instead.
func (l *Log) Oldest() uint64 {
	if len(l.segments) == 0 {
		return l.next
	}
	return l.segments[0].start
}

// SizeBytes is the total valid bytes across all live segments — the
// log's on-disk footprint, excluding any torn suffix a failed append
// left pending repair. The agent spool's -max-spool-bytes bound reads
// this.
func (l *Log) SizeBytes() int64 {
	var n int64
	for _, seg := range l.segments {
		n += seg.bytes
	}
	return n
}

// SetRetain installs a pruning floor: segments holding any record with
// offset ≥ off survive Prune regardless of the checkpoint watermark.
// The replication layer parks the floor at the shipped-and-acked
// replica watermark so a lagging standby never loses the suffix it
// still needs; ^uint64(0) (the initial value) disables the floor.
func (l *Log) SetRetain(off uint64) { l.retain = off }

// Append journals one record, making it durable per the fsync policy,
// and returns its offset. Append is transactional: on error the log
// holds exactly the records it held before — any partial bytes are
// truncated back out (or, if even that fails, the log wedges and
// every Append fails until Probe repairs it).
func (l *Log) Append(rec Record) (uint64, error) {
	if l.f == nil {
		return 0, errors.New("wal: log closed")
	}
	if l.wedged {
		if err := l.repairTail(); err != nil {
			return 0, fmt.Errorf("wal: wedged by earlier torn append: %w", err)
		}
	}
	t0 := time.Now()
	tail := &l.segments[len(l.segments)-1]
	if tail.count >= uint64(l.opts.SegmentRecords) {
		if err := l.rotate(); err != nil {
			return 0, err
		}
		tail = &l.segments[len(l.segments)-1]
	}
	l.line = appendLine(l.line[:0], rec)
	line := l.line
	if err := l.write(line); err != nil {
		return 0, err
	}
	l.dirty = true
	if l.opts.Fsync == FsyncAlways {
		if err := l.syncTail(); err != nil {
			// The line is written but not durable; remove it so the
			// error genuinely vetoes the record.
			if rerr := l.repairTail(); rerr != nil {
				return 0, fmt.Errorf("wal: append sync failed (%w); tail repair failed: %v", err, rerr)
			}
			return 0, err
		}
	}
	off := l.next
	l.next++
	tail.count++
	tail.bytes += int64(len(line))
	l.afterRec = true
	l.met.appends.Inc()
	l.met.offset.Set(float64(l.next))
	l.met.appendSeconds.Observe(time.Since(t0).Seconds())
	return off, nil
}

// write writes one whole line to the tail. A torn write is cut back
// out, so the file still ends at the last whole line.
func (l *Log) write(line []byte) error {
	if n, err := l.f.Write(line); err != nil {
		if n > 0 {
			if rerr := l.repairTail(); rerr != nil {
				return fmt.Errorf("wal: torn append (%w); tail repair failed: %v", err, rerr)
			}
		}
		return err
	}
	return nil
}

// AppendRefresh journals a refresh entry: the estimates the engine
// computed right after the reading the last Append journaled. The
// entry takes no offset and is never synced on its own, whatever the
// policy; nor does it leave the log dirty, so a Sync with no reading
// outstanding (a checkpoint's) issues no fsync for it. The next
// reading's sync, a rotation or Close makes it durable. Losing one to
// a crash costs only a search at replay. It writes nothing and fails
// unless the last line this Log wrote since Open is a reading, when an
// estimate holds a NaN or an infinity, and when the line would pass
// maxLine. A failed write is cut back out, as Append's is.
func (l *Log) AppendRefresh(ests []Estimate) error {
	switch {
	case l.f == nil:
		return errors.New("wal: log closed")
	case l.wedged:
		return errors.New("wal: wedged by earlier torn append")
	case !l.afterRec:
		return errors.New("wal: a refresh entry must follow a reading")
	}
	line, ok := appendRefreshLine(l.line[:0], ests)
	l.line = line
	switch {
	case !ok:
		return errors.New("wal: refresh entry holds a non-finite estimate")
	case len(line) > maxLine:
		return fmt.Errorf("wal: refresh entry of %d estimates is %d bytes, over the %d-byte line bound", len(ests), len(line), maxLine)
	}
	if err := l.write(line); err != nil {
		return err
	}
	l.afterRec = false
	l.segments[len(l.segments)-1].bytes += int64(len(line))
	l.met.refreshes.Inc()
	return nil
}

// repairTail truncates the tail file back to its last accounted byte,
// clearing any partial line a failed append left behind. Failure
// wedges the log; Probe (or the next Append) retries.
func (l *Log) repairTail() error {
	tail := &l.segments[len(l.segments)-1]
	if err := l.fs.Truncate(tail.path, tail.bytes); err != nil {
		l.wedged = true
		return err
	}
	l.wedged = false
	return nil
}

// Probe checks whether the log's directory accepts durable writes
// again: it repairs a wedged tail, then creates, syncs and removes a
// scratch file, and finally flushes any unsynced appends. A nil
// return means the disk took a full write+fsync round trip — the
// degraded-mode prober calls this on a jittered schedule and lifts
// read-only mode when it succeeds.
func (l *Log) Probe() error {
	if l.f == nil {
		return errors.New("wal: log closed")
	}
	if l.wedged {
		if err := l.repairTail(); err != nil {
			return err
		}
	}
	path := filepath.Join(l.dir, ".probe")
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write([]byte("probe\n"))
	var serr error
	if werr == nil {
		serr = f.Sync()
	}
	cerr := f.Close()
	_ = l.fs.Remove(path)
	if werr != nil {
		return werr
	}
	if serr != nil {
		return serr
	}
	if cerr != nil {
		return cerr
	}
	return l.Sync()
}

// Sync flushes and (policy permitting) fsyncs outstanding appends. The
// checkpointer MUST call this before persisting a checkpoint that
// covers them: a checkpoint must never run ahead of the durable log.
func (l *Log) Sync() error {
	if l.f == nil || !l.dirty {
		return nil
	}
	return l.syncTail()
}

func (l *Log) syncTail() error {
	if l.opts.Fsync != FsyncNever {
		t0 := time.Now()
		if err := l.f.Sync(); err != nil {
			return err
		}
		l.met.fsyncs.Inc()
		l.met.fsyncSeconds.Observe(time.Since(t0).Seconds())
	}
	l.dirty = false
	return nil
}

// rotate seals the active segment and starts a new one at the current
// offset. Ordered so that any failure leaves the log consistent: the
// new segment is created and the directory synced before the old tail
// is released.
func (l *Log) rotate() error {
	if err := l.syncTail(); err != nil {
		return err
	}
	seg := segment{start: l.next, path: segmentPath(l.dir, l.next)}
	f, err := l.fs.OpenFile(seg.path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if l.opts.Fsync != FsyncNever {
		if err := vfs.SyncDir(l.fs, l.dir); err != nil {
			_ = f.Close()
			_ = l.fs.Remove(seg.path)
			return err
		}
	}
	closeErr := l.f.Close()
	l.segments = append(l.segments, seg)
	l.f = f
	l.met.rotations.Inc()
	l.met.segments.Set(float64(len(l.segments)))
	// The sealed segment was already synced; a failing close is still
	// a disk talking back and must reach the caller, not /dev/null.
	return closeErr
}

// AlignTo fast-forwards the append offset to at least off by sealing
// the tail and opening a fresh segment there. Used when a checkpoint
// is AHEAD of the surviving log (the log's tail was truncated by
// corruption after the checkpoint covered it): new records must not
// reuse offsets the checkpoint claims are already folded in.
func (l *Log) AlignTo(off uint64) error {
	if off <= l.next {
		return nil
	}
	if err := l.syncTail(); err != nil {
		return err
	}
	seg := segment{start: off, path: segmentPath(l.dir, off)}
	f, err := l.fs.OpenFile(seg.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	closeErr := l.f.Close()
	// Drop a still-empty tail husk so the directory stays canonical.
	if tail := l.segments[len(l.segments)-1]; tail.count == 0 {
		_ = l.fs.Remove(tail.path)
		l.segments = l.segments[:len(l.segments)-1]
	}
	l.next = off
	l.segments = append(l.segments, seg)
	l.f = f
	l.afterRec = false
	return closeErr
}

// Replay streams every durable record with offset ≥ from, in order,
// to fn, each with the refresh entry journaled after it, if any.
// Replay reads the files as recovered on Open; call it before
// appending. Lines below from are checksummed like the rest, so a
// segment that rotted since Open fails here rather than shifting the
// offsets after the damage; only their refresh estimates are not
// copied out.
func (l *Log) Replay(from uint64, fn func(off uint64, e Entry) error) error {
	if err := l.Sync(); err != nil {
		return err
	}
	t0 := time.Now()
	var replayed uint64
	defer func() {
		l.met.replayed.Add(replayed)
		l.met.replaySeconds.Observe(time.Since(t0).Seconds())
	}()
	for _, seg := range l.segments {
		if seg.start+seg.count <= from || seg.count == 0 {
			continue
		}
		f, err := l.fs.Open(seg.path)
		if err != nil {
			return err
		}
		// A reading is held back until the next line shows whether a
		// refresh entry belongs to it.
		var held Entry
		holding := false
		emit := func(off uint64) error {
			holding = false
			if off < from {
				return nil
			}
			replayed++
			return fn(off, held)
		}
		sc := NewScanner(io.LimitReader(f, seg.bytes))
		off := seg.start
		for err == nil && sc.Scan() {
			switch sc.kind {
			case readingLine:
				if holding {
					err = emit(off - 1)
				}
				held, holding = Entry{Rec: sc.rec}, true
				off++
			case refreshLine:
				if off > from {
					// Copied out of the scanner's scratch; a refresh that
					// found no source stays an empty, non-nil slice.
					held.Refresh = append([]Estimate{}, sc.ests...)
				}
				err = emit(off - 1)
			default:
				err = fmt.Errorf("wal: segment %s corrupt at offset %d after recovery", seg.path, off)
			}
		}
		switch {
		case err != nil:
		case sc.err == io.ErrUnexpectedEOF:
			err = fmt.Errorf("wal: segment %s corrupt at offset %d after recovery", seg.path, off)
		case sc.err != nil:
			err = fmt.Errorf("wal: segment %s unreadable at offset %d after recovery: %w", seg.path, off, sc.err)
		case holding:
			err = emit(off - 1)
		}
		if err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// Prune removes whole segments every record of which sits below
// keepFrom (they are covered by a checkpoint and will never be
// replayed) AND below the SetRetain floor (a replica may still need
// them). The active tail always survives. Segments a checkpoint has
// covered but the retain floor holds back are counted on the
// radloc_wal_retained_segments gauge.
func (l *Log) Prune(keepFrom uint64) error {
	effective := keepFrom
	if l.retain < effective {
		effective = l.retain
	}
	retained := 0
	kept := l.segments[:0]
	for i, seg := range l.segments {
		last := i == len(l.segments)-1
		if !last && seg.start+seg.count <= effective {
			if err := l.fs.Remove(seg.path); err != nil && !os.IsNotExist(err) {
				return err
			}
			continue
		}
		if !last && seg.start+seg.count <= keepFrom {
			retained++
		}
		kept = append(kept, seg)
	}
	l.segments = kept
	l.met.layout(len(l.segments), l.next)
	l.met.retainedSegments.Set(float64(retained))
	return nil
}

// DropOldest removes the oldest sealed segment outright — records and
// all — and returns the offset range [start, end) it covered. This is
// the agent spool's byte-bound shedding primitive: when the spool
// exceeds -max-spool-bytes, the OLDEST data goes first (the newest
// readings are the ones still worth delivering). ok=false means only
// the active tail remains, which is never dropped. The retain floor
// is intentionally not consulted: shedding exists to free disk even
// when nothing downstream has acked.
func (l *Log) DropOldest() (start, end uint64, ok bool, err error) {
	if len(l.segments) < 2 {
		return 0, 0, false, nil
	}
	seg := l.segments[0]
	if err := l.fs.Remove(seg.path); err != nil && !os.IsNotExist(err) {
		return 0, 0, false, err
	}
	l.segments = append(l.segments[:0], l.segments[1:]...)
	l.met.layout(len(l.segments), l.next)
	return seg.start, seg.start + seg.count, true, nil
}

// Close flushes, syncs and closes the log.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.syncTail()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
