package scrub

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"radloc/internal/clock"
	"radloc/internal/wal"
)

// stubStore is a scriptable Store for unit tests.
type stubStore struct {
	mu          sync.Mutex
	segs        []wal.SegmentInfo
	corrupt     map[uint64]error // start → verify error
	badCkpts    []uint64
	verified    []uint64
	quarantined []uint64
	repaired    [][2]uint64
	repairSrc   string
	repairErr   error
}

func (s *stubStore) Segments() []wal.SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wal.SegmentInfo(nil), s.segs...)
}

func (s *stubStore) VerifySegment(start uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.verified = append(s.verified, start)
	return s.corrupt[start]
}

func (s *stubStore) QuarantineSegment(start uint64) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.quarantined = append(s.quarantined, start)
	for i, seg := range s.segs {
		if seg.Start == start {
			n := seg.Count
			s.segs = append(s.segs[:i], s.segs[i+1:]...)
			return n, nil
		}
	}
	return 0, errors.New("no such segment")
}

func (s *stubStore) VerifyCheckpoints() ([]uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	bad := s.badCkpts
	s.badCkpts = nil
	return bad, nil
}

func (s *stubStore) QuarantineCheckpoint(uint64) error { return nil }

func (s *stubStore) Repair(_ context.Context, from, to uint64) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repairErr != nil {
		return "", s.repairErr
	}
	s.repaired = append(s.repaired, [2]uint64{from, to})
	if s.repairSrc == "" {
		return "local", nil
	}
	return s.repairSrc, nil
}

func targetsFor(st *stubStore) func() []Target {
	return func() []Target { return []Target{{Zone: "default", Store: st}} }
}

// TestTickRoundRobinsSealedSegments checks that successive ticks walk
// the sealed segments in offset order and wrap, never touching the
// unsealed tail.
func TestTickRoundRobinsSealedSegments(t *testing.T) {
	st := &stubStore{segs: []wal.SegmentInfo{
		{Start: 0, Count: 4, Sealed: true},
		{Start: 4, Count: 4, Sealed: true},
		{Start: 8, Count: 2, Sealed: false},
	}}
	scr, err := New(Options{Targets: targetsFor(st)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		scr.Tick(ctx)
	}
	want := []uint64{0, 4, 0}
	if len(st.verified) != len(want) {
		t.Fatalf("verified %v, want %v", st.verified, want)
	}
	for i, w := range want {
		if st.verified[i] != w {
			t.Fatalf("verified %v, want %v", st.verified, want)
		}
	}
}

// TestTickQuarantinesAndRepairs checks the corruption path: a failing
// segment is quarantined and Repair is asked to re-anchor exactly the
// hole it left.
func TestTickQuarantinesAndRepairs(t *testing.T) {
	st := &stubStore{
		segs: []wal.SegmentInfo{
			{Start: 0, Count: 4, Sealed: true},
			{Start: 4, Count: 4, Sealed: true},
		},
		corrupt:   map[uint64]error{4: errors.New("crc mismatch")},
		repairSrc: "http://peer",
	}
	scr, err := New(Options{Targets: targetsFor(st)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scr.Tick(ctx) // verifies 0, clean
	scr.Tick(ctx) // verifies 4, corrupt
	if len(st.quarantined) != 1 || st.quarantined[0] != 4 {
		t.Fatalf("quarantined %v, want [4]", st.quarantined)
	}
	if len(st.repaired) != 1 || st.repaired[0] != [2]uint64{4, 8} {
		t.Fatalf("repaired %v, want [[4 8]]", st.repaired)
	}
	// The quarantined segment is gone from the listing; the next tick
	// wraps back to the surviving one instead of re-picking the hole.
	scr.Tick(ctx)
	if last := st.verified[len(st.verified)-1]; last != 0 {
		t.Fatalf("tick after quarantine verified %d, want 0", last)
	}
}

// TestTickRepairFailureKeepsTicking checks that a failed repair is
// surfaced as a metric-only event: the scrubber neither panics nor
// stops; the next tick proceeds.
func TestTickRepairFailureKeepsTicking(t *testing.T) {
	st := &stubStore{
		segs: []wal.SegmentInfo{
			{Start: 0, Count: 4, Sealed: true},
			{Start: 4, Count: 4, Sealed: true},
		},
		corrupt:   map[uint64]error{0: errors.New("crc mismatch")},
		repairErr: errors.New("no replica"),
	}
	scr, err := New(Options{Targets: targetsFor(st)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	scr.Tick(ctx)
	scr.Tick(ctx)
	if len(st.verified) < 2 {
		t.Fatalf("scrubber stopped after failed repair: verified %v", st.verified)
	}
}

// stepClock is a wall clock whose waits end at once. It records each
// requested wait and calls stop at the 20th.
type stepClock struct {
	clock.Real
	waits []time.Duration
	stop  func()
}

func (c *stepClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	c.waits = append(c.waits, d)
	if len(c.waits) == 20 {
		c.stop()
	}
	return context.WithTimeout(ctx, 0)
}

// TestRunJittersDefaultSchedule pins the scrub schedule with default
// options: a fleet must not scrub in lockstep, so the 20 waits spread,
// but never past ±20% of the interval, and Run ticks after each wait,
// not before the first — boot already validated everything.
func TestRunJittersDefaultSchedule(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clk := &stepClock{stop: cancel}
	ticks := 0
	scr, err := New(Options{Clock: clk, Targets: func() []Target {
		ticks++
		if ticks != len(clk.waits) {
			t.Fatalf("tick %d came after %d waits", ticks, len(clk.waits))
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	scr.Run(ctx)
	if ticks != 19 {
		t.Fatalf("Run ticked %d times over 20 waits, the last cancelled; want 19", ticks)
	}
	interval := scr.opts.Interval
	seen := make(map[time.Duration]bool)
	for _, d := range clk.waits {
		if d < 8*interval/10 || d > 12*interval/10 {
			t.Fatalf("wait %v outside ±20%% of %v", d, interval)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("20 waits took %d distinct value(s), want jitter", len(seen))
	}
}
