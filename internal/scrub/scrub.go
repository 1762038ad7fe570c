// Package scrub runs a background integrity pass over each zone's
// cold storage. Recovery-time validation only proves a WAL segment
// was intact when the process opened it; a bit that flips afterwards
// — controller bug, cosmic ray, silent media decay — sits undetected
// until the next crash, which is exactly when it hurts. The scrubber
// closes that window: on an idle-paced, jittered cadence it re-reads
// one sealed segment per zone per tick, re-verifying every record's
// CRC envelope, and re-parses the retained checkpoints. A segment or
// checkpoint that no longer verifies is quarantined (moved aside,
// never deleted) and the hole it leaves in recovery is immediately
// re-anchored: a fresh checkpoint at or past the hole's end, seeded
// from a caught-up replica when the cluster has one — an independent
// copy, immune to whatever corrupted the local disk — or from the
// local in-memory engine otherwise.
package scrub

import (
	"context"
	"errors"
	"log"
	"sync"
	"time"

	"radloc/internal/clock"
	"radloc/internal/obs"
	"radloc/internal/rng"
	"radloc/internal/wal"
)

// Store is one zone's cold storage as the scrubber sees it. All
// methods must be safe for concurrent use with the zone's live write
// path; implementations serialize against the WAL's owner lock.
type Store interface {
	// Segments lists the zone's live WAL segments in offset order.
	// Only entries with Sealed=true are scrub targets; the active
	// tail is still being appended to.
	Segments() []wal.SegmentInfo
	// VerifySegment re-reads the sealed segment whose first record
	// sits at start and re-verifies every record. A non-nil error
	// means cold corruption.
	VerifySegment(start uint64) error
	// QuarantineSegment moves the corrupt sealed segment aside and
	// drops it from the log's bookkeeping, returning the number of
	// records set aside. The caller must re-anchor recovery next.
	QuarantineSegment(start uint64) (removed uint64, err error)
	// VerifyCheckpoints re-parses every retained checkpoint and
	// returns the applied offsets of those that no longer decode.
	VerifyCheckpoints() (bad []uint64, err error)
	// QuarantineCheckpoint moves one corrupt checkpoint aside.
	QuarantineCheckpoint(applied uint64) error
	// Repair re-anchors recovery over the hole [from, to): it must
	// leave a durable checkpoint whose applied offset is at least to.
	// It returns a short label for the state's source ("local", or
	// the replica's URL) for logs and metrics.
	Repair(ctx context.Context, from, to uint64) (source string, err error)
}

// Target pairs a zone name with its store. Targets are re-enumerated
// every tick, so zones that appear, idle out, or degrade between
// ticks are picked up or skipped naturally.
type Target struct {
	// Zone is the zone's name, used in logs and to key the scrub
	// cursor.
	Zone string
	// Store is the zone's cold storage.
	Store Store
}

// Options configures a Scrubber.
type Options struct {
	// Targets enumerates the zones to scrub; called once per tick.
	// Required. The callback should omit zones whose storage is
	// degraded — there is no point re-reading a disk that cannot
	// accept the repair.
	Targets func() []Target
	// Interval is the base tick period (default 15m), jittered ±20%
	// per tick. Each tick verifies at most one sealed segment per zone,
	// so a zone with N cold segments is fully re-verified every N
	// intervals.
	Interval time.Duration
	// Clock drives the schedule (default the wall clock).
	Clock clock.Clock
	// RNG jitters the schedule; nil seeds a fixed stream.
	RNG *rng.Stream
	// Metrics receives the radloc_scrub_* collectors; nil gets a
	// private registry.
	Metrics *obs.Registry
	// Log, when non-nil, receives detection and repair decisions.
	Log *log.Logger
}

// Scrubber is the background integrity loop. Build with New and run
// with Run until its context ends; Tick is exported so tests drive it
// deterministically.
type Scrubber struct {
	opts Options
	met  *scrubMetrics

	mu      sync.Mutex
	cursors map[string]uint64 // per zone: first offset not yet re-verified this cycle
}

// New builds a Scrubber. Call Run to begin scrubbing.
func New(opts Options) (*Scrubber, error) {
	if opts.Targets == nil {
		return nil, errors.New("scrub: Options.Targets is required")
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.RNG == nil {
		opts.RNG = rng.NewNamed(0x5c4b, "scrub")
	}
	if opts.Interval <= 0 {
		opts.Interval = 15 * time.Minute
	}
	return &Scrubber{
		opts:    opts,
		met:     newScrubMetrics(obs.Or(opts.Metrics)),
		cursors: make(map[string]uint64),
	}, nil
}

func (s *Scrubber) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log.Printf(format, args...)
	}
}

// Run scrubs on a jittered schedule until ctx is done. The first
// tick comes a full interval after Run starts: boot already validated
// everything.
func (s *Scrubber) Run(ctx context.Context) {
	clock.Every(ctx, s.opts.Clock, s.opts.Interval, s.opts.RNG.Float64, s.Tick)
}

// Tick runs one scrub round over every current target: checkpoints
// are all re-parsed (they are few and small), and one sealed segment
// per zone is re-read, round-robin across ticks so a zone's whole
// cold history is covered every len(segments) intervals. Exposed so
// tests drive the scrubber deterministically.
func (s *Scrubber) Tick(ctx context.Context) {
	s.met.ticks.Inc()
	for _, t := range s.opts.Targets() {
		if ctx.Err() != nil {
			return
		}
		s.scrubCheckpoints(t)
		s.scrubOneSegment(ctx, t)
	}
}

// scrubCheckpoints re-parses the zone's retained checkpoints and
// quarantines any that no longer decode. No repair step is needed:
// losing a checkpoint only lengthens the next replay, and the very
// next cadence checkpoint replaces it.
func (s *Scrubber) scrubCheckpoints(t Target) {
	bad, err := t.Store.VerifyCheckpoints()
	if err != nil {
		s.logf("scrub: zone %q: verify checkpoints: %v", t.Zone, err)
		return
	}
	s.met.ckptPasses.Inc()
	for _, applied := range bad {
		s.met.corruptions.With("checkpoint").Inc()
		if qerr := t.Store.QuarantineCheckpoint(applied); qerr != nil {
			s.logf("scrub: zone %q: checkpoint@%d corrupt but quarantine failed: %v", t.Zone, applied, qerr)
			continue
		}
		s.logf("scrub: zone %q: checkpoint@%d no longer decodes; quarantined (next cadence checkpoint replaces it)",
			t.Zone, applied)
	}
}

// scrubOneSegment advances the zone's cursor to the next sealed
// segment, re-verifies it, and on corruption quarantines it and
// re-anchors recovery through the store's Repair path.
func (s *Scrubber) scrubOneSegment(ctx context.Context, t Target) {
	segs := t.Store.Segments()
	s.mu.Lock()
	cursor := s.cursors[t.Zone]
	s.mu.Unlock()
	pick, ok := nextSealed(segs, cursor)
	if !ok {
		return // nothing cold to verify
	}
	s.mu.Lock()
	s.cursors[t.Zone] = pick.Start + pick.Count
	s.mu.Unlock()

	err := t.Store.VerifySegment(pick.Start)
	s.met.segments.Inc()
	if err == nil {
		return
	}
	s.met.segFailed.Inc()
	s.met.corruptions.With("segment").Inc()
	s.logf("scrub: zone %q: cold corruption in segment@%d (%d records): %v", t.Zone, pick.Start, pick.Count, err)
	removed, qerr := t.Store.QuarantineSegment(pick.Start)
	if qerr != nil {
		s.met.repairFails.Inc()
		s.logf("scrub: zone %q: quarantine segment@%d failed: %v", t.Zone, pick.Start, qerr)
		return
	}
	end := pick.Start + pick.Count
	source, rerr := t.Store.Repair(ctx, pick.Start, end)
	if rerr != nil {
		s.met.repairFails.Inc()
		s.logf("scrub: zone %q: segment@%d quarantined (%d records) but repair failed — recovery below offset %d is broken until a checkpoint lands: %v",
			t.Zone, pick.Start, removed, end, rerr)
		return
	}
	// source is "local" or the replica's URL; the label keeps only
	// local/replica so its cardinality stays bounded.
	label := "local"
	if source != "local" {
		label = "replica"
	}
	s.met.repairs.With(label).Inc()
	s.logf("scrub: zone %q: segment@%d quarantined (%d records), recovery re-anchored past %d from %s",
		t.Zone, pick.Start, removed, end, source)
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
