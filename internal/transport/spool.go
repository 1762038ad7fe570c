package transport

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"radloc/internal/obs"
	"radloc/internal/vfs"
	"radloc/internal/wal"
)

// Reading is one sensor measurement on the wire — field-compatible
// with the daemon's POST /measurements JSON and the replay recorder's
// NDJSON. Seq is the per-sensor monotone sequence number the fusion
// engine dedups redelivery on; 0 means unsequenced (the server applies
// it blindly, so redelivery of a seq-0 reading double-counts — spooled
// pipelines should always sequence). It is the WAL's record type, so
// the spool journals a reading without conversion.
type Reading = wal.Record

// SpoolOptions tunes a Spool.
type SpoolOptions struct {
	// MaxPending bounds the number of undelivered readings held on
	// disk (default 1<<20). When full, new readings are shed (oldest
	// data is closest to delivery, so the newest is dropped) and
	// counted.
	MaxPending int
	// MaxBytes bounds the spool's on-disk size (0 = unbounded). When
	// an append pushes past it, whole OLDEST sealed segments are
	// dropped until the spool fits again — the opposite end from the
	// MaxPending bound, because a byte bound exists to protect the
	// disk: the newest readings are the ones still worth delivering,
	// and the oldest are closest to being obsolete anyway. Undelivered
	// readings lost this way are counted as shed.
	MaxBytes int64
	// Fsync is the WAL durability policy (default FsyncBatch: a crash
	// can lose the last unsynced tail, which the source re-reads or
	// the operator replays; FsyncAlways survives power loss per
	// reading).
	Fsync wal.FsyncPolicy
	// SegmentRecords is the WAL segment rotation size (default 512 —
	// small segments so acknowledged data is pruned promptly).
	SegmentRecords int
	// Metrics receives the spool's occupancy gauges
	// (radloc_agent_spool_*) and the underlying WAL's counters and
	// fsync timings (radloc_wal_*); nil gets a private registry.
	Metrics *obs.Registry
}

func (o SpoolOptions) withDefaults() SpoolOptions {
	if o.MaxPending <= 0 {
		o.MaxPending = 1 << 20
	}
	if o.SegmentRecords <= 0 {
		o.SegmentRecords = 512
	}
	return o
}

// Spool is the agent's bounded store-and-forward buffer: an on-disk
// queue of readings built on the WAL's segment primitives, plus a
// persisted acknowledgement cursor. Readings are appended as they are
// produced, read back in batches for delivery, and acknowledged once
// the fusion center has accepted them; acknowledged segments are
// pruned. Reopening the directory resumes exactly where the previous
// process stopped — delivered-but-unacknowledged readings are sent
// again, and the server's sequence gate dedups them. Safe for
// concurrent use.
type Spool struct {
	mu    sync.Mutex
	log   *wal.Log
	dir   string
	opts  SpoolOptions
	acked uint64 // readings ≤ acked-1 (offsets < acked) are delivered
	shed  uint64
}

const cursorFile = "cursor.json"

type cursorJSON struct {
	Acked uint64 `json:"acked"`
}

// OpenSpool opens (creating if needed) the spool directory and
// positions it after the last acknowledged reading.
func OpenSpool(dir string, opts SpoolOptions) (*Spool, error) {
	opts = opts.withDefaults()
	reg := obs.Or(opts.Metrics)
	l, _, err := wal.Open(dir, wal.Options{Fsync: opts.Fsync, SegmentRecords: opts.SegmentRecords, Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("transport: open spool %s: %w", dir, err)
	}
	s := &Spool{log: l, dir: dir, opts: opts}
	data, err := os.ReadFile(filepath.Join(dir, cursorFile))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh spool: nothing acknowledged yet.
	case err != nil:
		l.Close()
		return nil, err
	default:
		var c cursorJSON
		if jerr := json.Unmarshal(data, &c); jerr == nil {
			s.acked = c.Acked
		}
		// A corrupt cursor file degrades to acked=0: everything is
		// redelivered and the server dedups — safe, just chatty.
	}
	if s.acked > l.Offset() {
		// Cursor ahead of a truncated log: nothing pending.
		s.acked = l.Offset()
	}
	registerSpoolMetrics(reg, s)
	return s, nil
}

// Append queues one reading. It returns false (and counts a shed)
// when the pending bound is hit; the byte bound sheds oldest segments
// after the append instead (see SpoolOptions.MaxBytes), so Append
// still reports true — the offered reading itself was kept.
func (s *Spool) Append(r Reading) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(s.log.Offset()-s.acked) >= s.opts.MaxPending {
		s.shed++
		return false, nil
	}
	_, err := s.log.Append(r)
	if err != nil {
		return false, err
	}
	if s.opts.MaxBytes > 0 {
		if err := s.shedToBytesLocked(); err != nil {
			return true, err
		}
	}
	return true, nil
}

// shedToBytesLocked drops oldest sealed segments until the spool fits
// MaxBytes (or only the active tail remains). Undelivered records in
// a dropped segment count as shed; already-acknowledged ones were due
// for pruning anyway. The in-memory cursor advances past the dropped
// range so Pending stays honest — the persisted cursor file is left
// alone (it only ever lags, which is safe: the data is gone either
// way and redelivery of nothing costs nothing). Callers hold s.mu.
func (s *Spool) shedToBytesLocked() error {
	for s.log.SizeBytes() > s.opts.MaxBytes {
		start, end, ok, err := s.log.DropOldest()
		if err != nil {
			return err
		}
		if !ok {
			return nil // only the tail left; the bound is best-effort
		}
		lo := start
		if s.acked > lo {
			lo = s.acked
		}
		if end > lo {
			s.shed += end - lo
		}
		if s.acked < end {
			s.acked = end
		}
	}
	return nil
}

// SizeBytes reports the spool's current on-disk payload size.
func (s *Spool) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.SizeBytes()
}

// Pending returns the number of undelivered readings.
func (s *Spool) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.log.Offset() - s.acked)
}

// Shed returns how many readings the bound discarded.
func (s *Spool) Shed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shed
}

// errStopReplay stops the WAL scan once a batch is full.
var errStopReplay = errors.New("stop")

// Next returns up to max undelivered readings in append order, plus
// the cursor value to Ack once they are delivered. An empty batch
// means the spool is drained.
func (s *Spool) Next(max int) ([]Reading, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if max <= 0 {
		max = 1
	}
	var batch []Reading
	next := s.acked
	err := s.log.Replay(s.acked, func(off uint64, e wal.Entry) error {
		if e.Refresh != nil {
			// The spool only ever appends readings: a refresh entry
			// means this directory is some zone's WAL, not a spool.
			return fmt.Errorf("transport: spool %s holds a refresh entry after offset %d: not a spool", s.dir, off)
		}
		batch = append(batch, e.Rec)
		next = off + 1
		if len(batch) >= max {
			return errStopReplay
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStopReplay) {
		return nil, s.acked, err
	}
	return batch, next, nil
}

// Ack marks every reading below upto as delivered, persists the
// cursor atomically and durably (vfs.WriteFileAtomic fsyncs it on
// every Ack), and prunes fully-acknowledged segments. Crash between
// delivery and Ack means redelivery — the at-least-once half of the
// contract; the server's dedup supplies the other half.
func (s *Spool) Ack(upto uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if upto <= s.acked {
		return nil
	}
	if off := s.log.Offset(); upto > off {
		upto = off
	}
	blob, err := json.Marshal(cursorJSON{Acked: upto})
	if err != nil {
		return err
	}
	if err := vfs.WriteFileAtomic(nil, filepath.Join(s.dir, cursorFile), blob); err != nil {
		return err
	}
	s.acked = upto
	return s.log.Prune(upto)
}

// Acked returns the persisted cursor: readings below it are known
// delivered.
func (s *Spool) Acked() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.acked
}

// Close syncs and closes the underlying log.
func (s *Spool) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}
