package node

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/node/nodetest"
	"radloc/internal/vfs"
	"radloc/internal/wal"
)

// scrubNode boots a scrubbing node over fsys (nil = the real disk)
// with 8-record WAL segments and no cadence checkpoints, journals the
// chaos stream into its default zone, and returns the node with that
// zone's sealed segments, oldest first. The tests tick the scrubber by
// hand; Start is never called.
func scrubNode(t *testing.T, fsys vfs.FS) (*Node, []wal.SegmentInfo) {
	t.Helper()
	n := testNode(t, t.TempDir(), func(c *Config) {
		c.WALSegment = 8
		c.ScrubInterval = time.Hour
		c.FS = fsys
	})
	journalChaosStream(t, n.zs)
	z := n.zs.defaultZone()
	var sealed []wal.SegmentInfo
	if err := z.Do(context.Background(), func(*fusion.Engine) error {
		for _, seg := range zoneDurable(z).log.SegmentInfos() {
			if seg.Sealed {
				sealed = append(sealed, seg)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n, sealed
}

// scrubCount reads one of the scrubber's counters off the node's
// /metrics; an unexposed series reads 0.
func scrubCount(t *testing.T, n *Node, series string) float64 {
	t.Helper()
	v, _ := nodetest.ScrapeGauge(t, n.Handler(), series)
	return v
}

// TestScrubRoundRobinsSealedSegments checks that successive ticks walk
// a zone's sealed segments in offset order, one per tick, so the k-th
// is re-verified on tick k, and that the cursor wraps back to the
// oldest once it has passed the newest, never picking the active tail
// or the hole a quarantine left.
func TestScrubRoundRobinsSealedSegments(t *testing.T) {
	n, sealed := scrubNode(t, nil)
	if len(sealed) < 4 {
		t.Fatalf("%d sealed segments, want at least 4", len(sealed))
	}
	const k = 3
	corrupt := flipByteInSegment(t, n.cfg.WALDir, k-1)
	ctx := context.Background()
	for tick := 1; tick <= len(sealed); tick++ {
		n.scr.tick(ctx)
		want := 0.0
		if tick >= k {
			want = 1
		}
		if got := scrubCount(t, n, "radloc_scrub_segment_failures_total"); got != want {
			t.Fatalf("after tick %d: %v segment failures, want %v (the corrupt segment is #%d)", tick, got, want, k)
		}
		if got := scrubCount(t, n, "radloc_scrub_segments_verified_total"); got != float64(tick) {
			t.Fatalf("after tick %d: %v segments verified, want %d", tick, got, tick)
		}
	}
	parked, err := filepath.Glob(filepath.Join(n.cfg.WALDir, corruptDirName, "wal-*.ndjson"))
	if err != nil || len(parked) != 1 || filepath.Base(parked[0]) != filepath.Base(corrupt) {
		t.Fatalf("quarantined %v (err %v), want [%s]", parked, err, filepath.Base(corrupt))
	}

	// Every surviving segment was covered once; the next tick wraps to
	// the oldest.
	flipByteInSegment(t, n.cfg.WALDir, 0)
	n.scr.tick(ctx)
	if got := scrubCount(t, n, "radloc_scrub_segment_failures_total"); got != 2 {
		t.Fatalf("tick after a full cycle found %v segment failures in all, want 2: it did not wrap to the oldest segment", got)
	}
}

// TestScrubNextSealed pins the round-robin pick: the first sealed
// segment at or after the cursor, else the oldest sealed one; the
// unsealed tail never.
func TestScrubNextSealed(t *testing.T) {
	segs := []wal.SegmentInfo{
		{Start: 0, Count: 8, Sealed: true},
		{Start: 8, Count: 8, Sealed: true},
		{Start: 24, Count: 8, Sealed: true}, // 16–24 was quarantined
		{Start: 32, Count: 3},
	}
	for _, tc := range []struct {
		name   string
		segs   []wal.SegmentInfo
		cursor uint64
		want   uint64
		ok     bool
	}{
		{"fresh cursor", segs, 0, 0, true},
		{"cursor at a segment", segs, 8, 8, true},
		{"cursor at a hole", segs, 16, 24, true},
		{"past the newest sealed wraps", segs, 32, 0, true},
		{"past the tail wraps", segs, 40, 0, true},
		{"only the tail", segs[3:], 0, 0, false},
		{"no segments", nil, 0, 0, false},
	} {
		got, ok := nextSealed(tc.segs, tc.cursor)
		if ok != tc.ok || (ok && got.Start != tc.want) {
			t.Errorf("%s: nextSealed(cursor %d) = %d, %v; want %d, %v", tc.name, tc.cursor, got.Start, ok, tc.want, tc.ok)
		}
	}
}

// TestScrubRepairFailureKeepsTicking checks that a failed repair costs
// a metric and a log line and stops nothing: the segment stays
// quarantined, the cursor moves on, and the next tick both retries the
// failed repair — which re-anchors the first hole on its own — and
// verifies the next segment.
func TestScrubRepairFailureKeepsTicking(t *testing.T) {
	faulty := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 11})
	n, sealed := scrubNode(t, faulty)
	if len(sealed) < 2 {
		t.Fatalf("%d sealed segments, want at least 2", len(sealed))
	}
	flipByteInSegment(t, n.cfg.WALDir, 0)
	flipByteInSegment(t, n.cfg.WALDir, 1)
	ctx := context.Background()

	// The quarantine renames; only the repair's checkpoint write syncs.
	faulty.FailSyncs(syscall.EIO)
	n.scr.tick(ctx)
	faulty.Heal()
	if got := scrubCount(t, n, "radloc_scrub_repair_failures_total"); got != 1 {
		t.Fatalf("radloc_scrub_repair_failures_total = %v, want 1", got)
	}
	if got := scrubCount(t, n, `radloc_scrub_repairs_total{source="local"}`); got != 0 {
		t.Fatalf("a repair succeeded under a failing fsync (%v)", got)
	}
	hole := sealed[0].Start + sealed[0].Count
	if got := unrepaired(t, n); got != hole {
		t.Fatalf("zone keeps unrepaired hole end %d, want %d", got, hole)
	}

	// The retry runs before the segment step, so the first hole is
	// re-anchored by its own retry: a checkpoint at or past its end
	// lands before the second corruption is even found.
	var logBuf bytes.Buffer
	n.scr.log.SetOutput(&logBuf)
	n.scr.tick(ctx)
	if got := scrubCount(t, n, `radloc_scrub_corruptions_total{kind="segment"}`); got != 2 {
		t.Fatalf("radloc_scrub_corruptions_total{kind=segment} = %v after two ticks, want 2: the tick after a failed repair did not verify the next segment", got)
	}
	if got := scrubCount(t, n, `radloc_scrub_repairs_total{source="local"}`); got != 2 {
		t.Fatalf("radloc_scrub_repairs_total{source=local} = %v, want 2: the retry and the second hole's repair", got)
	}
	if got := scrubCount(t, n, "radloc_scrub_repair_failures_total"); got != 1 {
		t.Fatalf("radloc_scrub_repair_failures_total = %v, want still 1", got)
	}
	log := logBuf.String()
	retry := strings.Index(log, fmt.Sprintf("retrying the repair of an earlier hole, recovery re-anchored past %d", hole))
	second := strings.Index(log, fmt.Sprintf("segment@%d quarantined", sealed[1].Start))
	if retry < 0 || second < 0 || retry > second {
		t.Fatalf("want the retry's re-anchor logged before the second segment's quarantine:\n%s", log)
	}
	if got := unrepaired(t, n); got != 0 {
		t.Fatalf("zone still keeps unrepaired hole end %d after the retry", got)
	}
}

// unrepaired reads the default zone's unrepaired hole end on its loop.
func unrepaired(t *testing.T, n *Node) uint64 {
	t.Helper()
	z := n.zs.defaultZone()
	var end uint64
	if err := z.Do(context.Background(), func(*fusion.Engine) error {
		end = zoneDurable(z).unrepaired
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return end
}
