package wal

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestQuarantineSuffixAtSegmentHead puts the floor exactly on a
// segment boundary: no file is split, the straddling-segment path is
// never entered, and whole segments move intact.
func TestQuarantineSuffixAtSegmentHead(t *testing.T) {
	dir := t.TempDir()
	div := filepath.Join(dir, "diverged")
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, SegmentRecords: 4})
	defer l.Close()
	appendN(t, l, 0, 10) // segments: [0..3], [4..7], [8..9]

	moved, err := l.QuarantineSuffix(4, div)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 6 {
		t.Fatalf("moved = %d, want 6", moved)
	}
	if l.Offset() != 4 || l.Oldest() != 0 {
		t.Fatalf("after boundary quarantine: next %d oldest %d, want 4 0", l.Offset(), l.Oldest())
	}
	// The kept segment was never rewritten: replay yields its exact
	// records, and no split temp artifacts exist in the live dir.
	recs := replayAll(t, l, 0)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4", len(recs))
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("boundary quarantine left temp file %s", e.Name())
		}
	}
	if got := readQuarantined(t, div); len(got) != 6 {
		t.Fatalf("quarantined %d records, want 6", len(got))
	}
}

// TestQuarantineSuffixEmptyAboveHead covers the empty-suffix edges:
// a floor above the head and a floor exactly at the head both move
// nothing and leave the log untouched.
func TestQuarantineSuffixEmptyAboveHead(t *testing.T) {
	dir := t.TempDir()
	div := filepath.Join(dir, "diverged")
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, SegmentRecords: 4})
	defer l.Close()
	appendN(t, l, 0, 5)

	for _, floor := range []uint64{5, 6, 100} {
		if moved, err := l.QuarantineSuffix(floor, div); err != nil || moved != 0 {
			t.Fatalf("floor %d: moved %d, err %v", floor, moved, err)
		}
	}
	if got := replayAll(t, l, 0); len(got) != 5 {
		t.Fatalf("log changed under empty quarantines: %d records", len(got))
	}
	if _, err := os.Stat(div); !os.IsNotExist(err) {
		t.Fatal("empty quarantine created the diverged directory")
	}
}

// TestQuarantineRacingPrune interleaves checkpoint-style prunes with
// a divergence quarantine, serialized by a mutex standing in for the
// daemon's single owner (the zone's event loop runs both). Run under
// -race this proves serialized callers suffice and the log's
// bookkeeping stays consistent whichever side wins each segment.
func TestQuarantineRacingPrune(t *testing.T) {
	dir := t.TempDir()
	div := filepath.Join(dir, "diverged")
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, SegmentRecords: 4})
	defer l.Close()
	appendN(t, l, 0, 40)

	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := uint64(4); k <= 20; k += 4 {
			mu.Lock()
			if err := l.Prune(k); err != nil {
				t.Errorf("prune to %d: %v", k, err)
			}
			mu.Unlock()
		}
	}()
	mu.Lock()
	moved, err := l.QuarantineSuffix(30, div)
	mu.Unlock()
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if moved != 10 {
		t.Fatalf("moved = %d, want 10", moved)
	}
	mu.Lock()
	defer mu.Unlock()
	if l.Offset() != 30 {
		t.Fatalf("offset = %d, want 30", l.Offset())
	}
	// Whatever the prune goroutine got to, the surviving window is a
	// contiguous [Oldest, 30) prefix that replays cleanly.
	oldest := l.Oldest()
	if got := replayAll(t, l, oldest); uint64(len(got)) != 30-oldest {
		t.Fatalf("replayed %d records from %d, want %d", len(got), oldest, 30-oldest)
	}
}

// TestSegmentInfosAndVerify exercises the scrubber's read surface:
// SegmentInfos marks exactly the tail unsealed, VerifySegment passes
// on clean cold segments and pinpoints a flipped byte.
func TestSegmentInfosAndVerify(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, SegmentRecords: 4})
	defer l.Close()
	appendN(t, l, 0, 10) // [0..3], [4..7], tail [8..9]

	infos := l.SegmentInfos()
	if len(infos) != 3 {
		t.Fatalf("SegmentInfos returned %d entries, want 3", len(infos))
	}
	for i, info := range infos {
		wantSealed := i != 2
		if info.Sealed != wantSealed {
			t.Fatalf("segment %d sealed = %v, want %v", i, info.Sealed, wantSealed)
		}
	}
	if infos[1].Start != 4 || infos[1].Count != 4 {
		t.Fatalf("segment 1 = %+v, want start 4 count 4", infos[1])
	}
	for _, info := range infos[:2] {
		if err := l.VerifySegment(info.Start); err != nil {
			t.Fatalf("clean segment@%d failed verification: %v", info.Start, err)
		}
	}

	// Flip one byte cold — after the write was durable and validated —
	// and the re-verify catches what recovery-time validation cannot.
	path := segmentPath(dir, 4)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.VerifySegment(4); err == nil {
		t.Fatal("VerifySegment missed a flipped byte")
	}
	if err := l.VerifySegment(0); err != nil {
		t.Fatalf("sibling segment failed verification: %v", err)
	}
}

// TestVerifySegmentDetectsEveryByteFlip flips every byte of a sealed
// segment, one at a time, and demands VerifySegment catch each one.
// The exhaustive sweep exists because of a real near-miss: a 0x20
// flip turning the envelope key "rec" into "Rec" decodes cleanly
// under encoding/json's case-insensitive field matching, and the CRC
// — computed over the untouched payload bytes — still matches. Only
// decodeLine's exact canonical grammar sees it. Replay must catch the
// same flips, those below its start offset included: the replication
// stream and the spool replay sealed segments long after Open
// validated them, and a newline flipped away below the start would
// join two readings into one line and shift every later offset.
func TestVerifySegmentDetectsEveryByteFlip(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, SegmentRecords: 4})
	defer l.Close()
	appendN(t, l, 0, 6) // sealed [0..3], tail [4..5]

	path := segmentPath(dir, 0)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mask := range []byte{0x20, 0x01, 0x80} {
		for i := range clean {
			raw := append([]byte(nil), clean...)
			raw[i] ^= mask
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := l.VerifySegment(0); err == nil {
				t.Fatalf("VerifySegment missed byte %d flipped by %#02x (%q -> %q)",
					i, mask, clean[i], raw[i])
			}
			if err := l.Replay(3, func(uint64, Entry) error { return nil }); err == nil {
				t.Fatalf("Replay(3) missed byte %d flipped by %#02x (%q -> %q)",
					i, mask, clean[i], raw[i])
			}
		}
	}
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := l.VerifySegment(0); err != nil {
		t.Fatalf("restored segment failed verification: %v", err)
	}
	if recs := replayAll(t, l, 3); len(recs) != 3 {
		t.Fatalf("restored segment replays %d records from 3, want 3", len(recs))
	}
}

// TestQuarantineSegment covers the scrubber's removal path: a sealed
// segment moves out whole, the tail is refused, and the hole is
// visible in the log's bookkeeping.
func TestQuarantineSegment(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "corrupt")
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, SegmentRecords: 4})
	defer l.Close()
	appendN(t, l, 0, 10)

	if _, err := l.QuarantineSegment(8, bad); err == nil {
		t.Fatal("QuarantineSegment accepted the active tail")
	}
	if _, err := l.QuarantineSegment(5, bad); err == nil {
		t.Fatal("QuarantineSegment accepted a non-boundary offset")
	}
	removed, err := l.QuarantineSegment(4, bad)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 4 {
		t.Fatalf("removed = %d, want 4", removed)
	}
	if got := readQuarantined(t, bad); len(got) != 4 {
		t.Fatalf("quarantine dir holds %d records, want 4", len(got))
	}
	if got := len(l.SegmentInfos()); got != 2 {
		t.Fatalf("log still lists %d segments, want 2", got)
	}
	// Replay from the hole's end still works; appends continue at the
	// old head.
	if got := replayAll(t, l, 8); len(got) != 2 {
		t.Fatalf("replay past the hole returned %d records, want 2", len(got))
	}
	off, err := l.Append(Record{SensorID: 1, CPM: 999})
	if err != nil || off != 10 {
		t.Fatalf("append after quarantine: off %d err %v", off, err)
	}
}
