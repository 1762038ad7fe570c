package transport

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"radloc/internal/wal"
)

func reading(i int) Reading {
	return Reading{SensorID: i % 7, CPM: 10 + i, Step: i / 7, Seq: uint64(i/7) + 1}
}

func TestSpoolAppendNextAck(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir, SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for i := 0; i < 10; i++ {
		if ok, err := sp.Append(reading(i)); err != nil || !ok {
			t.Fatalf("append %d: ok=%v err=%v", i, ok, err)
		}
	}
	if sp.Pending() != 10 {
		t.Fatalf("pending = %d, want 10", sp.Pending())
	}
	batch, upto, err := sp.Next(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 4 || upto != 4 {
		t.Fatalf("Next(4) = %d readings, cursor %d", len(batch), upto)
	}
	for i, r := range batch {
		if r != reading(i) {
			t.Fatalf("reading %d = %+v, want %+v", i, r, reading(i))
		}
	}
	// Un-acked reads repeat (at-least-once).
	again, _, err := sp.Next(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 4 || again[0] != batch[0] {
		t.Fatal("unacked batch did not repeat")
	}
	if err := sp.Ack(upto); err != nil {
		t.Fatal(err)
	}
	if sp.Pending() != 6 {
		t.Fatalf("pending after ack = %d, want 6", sp.Pending())
	}
	rest, upto, err := sp.Next(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 6 || rest[0] != reading(4) || upto != 10 {
		t.Fatalf("rest = %d readings starting %+v, cursor %d", len(rest), rest[0], upto)
	}
}

// TestSpoolSurvivesReopen: restart resumes at the persisted cursor,
// redelivering the delivered-but-unacked tail.
func TestSpoolSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir, SpoolOptions{SegmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := sp.Append(reading(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Ack(9); err != nil {
		t.Fatal(err)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	sp2, err := OpenSpool(dir, SpoolOptions{SegmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if sp2.Acked() != 9 {
		t.Fatalf("reopened cursor = %d, want 9", sp2.Acked())
	}
	if sp2.Pending() != 11 {
		t.Fatalf("reopened pending = %d, want 11", sp2.Pending())
	}
	batch, upto, err := sp2.Next(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 11 || batch[0] != reading(9) || upto != 20 {
		t.Fatalf("reopened Next = %d readings starting %+v", len(batch), batch[0])
	}
	// New appends continue the offset sequence.
	if _, err := sp2.Append(reading(20)); err != nil {
		t.Fatal(err)
	}
	if sp2.Pending() != 12 {
		t.Fatalf("pending after append = %d", sp2.Pending())
	}
}

// TestSpoolBoundSheds: the pending bound drops the newest reading and
// counts it.
func TestSpoolBoundSheds(t *testing.T) {
	sp, err := OpenSpool(t.TempDir(), SpoolOptions{MaxPending: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	accepted := 0
	for i := 0; i < 8; i++ {
		ok, err := sp.Append(reading(i))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			accepted++
		}
	}
	if accepted != 5 || sp.Shed() != 3 {
		t.Fatalf("accepted %d shed %d, want 5/3", accepted, sp.Shed())
	}
	// Acking frees capacity.
	if err := sp.Ack(2); err != nil {
		t.Fatal(err)
	}
	if ok, _ := sp.Append(reading(8)); !ok {
		t.Fatal("append refused after ack freed capacity")
	}
}

// TestSpoolAckPrunesSegments: fully-acknowledged segments disappear
// from disk.
func TestSpoolAckPrunesSegments(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir, SpoolOptions{SegmentRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for i := 0; i < 10; i++ {
		if _, err := sp.Append(reading(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Ack(8); err != nil {
		t.Fatal(err)
	}
	// Everything below offset 8 is prunable; the remaining data must
	// still read back.
	batch, _, err := sp.Next(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0] != reading(8) {
		t.Fatalf("post-prune Next = %+v", batch)
	}
}

func TestSpoolCorruptCursorDegradesToRedelivery(t *testing.T) {
	dir := t.TempDir()
	sp, err := OpenSpool(dir, SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := sp.Append(reading(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Ack(2); err != nil {
		t.Fatal(err)
	}
	sp.Close()
	// Corrupt the cursor; reopen must fall back to redelivering from 0
	// (not fail, not skip data).
	if err := os.WriteFile(filepath.Join(dir, cursorFile), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	sp2, err := OpenSpool(dir, SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp2.Close()
	if sp2.Acked() != 0 {
		t.Fatalf("corrupt cursor read as %d", sp2.Acked())
	}
}

func TestSpoolByteBoundShedsOldest(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so the byte bound has sealed segments to drop.
	sp, err := OpenSpool(dir, SpoolOptions{SegmentRecords: 8, MaxBytes: 600})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for i := 0; i < 64; i++ {
		if ok, err := sp.Append(reading(i)); err != nil || !ok {
			t.Fatalf("append %d: ok=%v err=%v", i, ok, err)
		}
	}
	if got := sp.SizeBytes(); got > 600+200 {
		// One tail segment may exceed the bound; wholesale growth must not.
		t.Fatalf("spool holds %d bytes, want ~<= 600 plus one segment", got)
	}
	if sp.Shed() == 0 {
		t.Fatal("byte bound never shed")
	}
	// The survivors are the NEWEST readings, contiguous to the end.
	batch, upto, err := sp.Next(1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) == 0 || upto != 64 {
		t.Fatalf("Next = %d readings, cursor %d", len(batch), upto)
	}
	if want := reading(64 - len(batch)); batch[0] != want {
		t.Fatalf("oldest survivor = %+v, want %+v", batch[0], want)
	}
	if last := batch[len(batch)-1]; last != reading(63) {
		t.Fatalf("newest survivor = %+v, want %+v", last, reading(63))
	}
	if int(sp.Shed())+len(batch) != 64 {
		t.Fatalf("shed %d + pending %d != 64", sp.Shed(), len(batch))
	}
	if sp.Pending() != len(batch) {
		t.Fatalf("Pending = %d, want %d", sp.Pending(), len(batch))
	}
}

// TestSpoolRefusesRefreshEntries: a spool only ever journals readings.
// A directory whose log holds a refresh entry (a zone's WAL, not a
// spool) fails Next rather than shipping that log's readings.
func TestSpoolRefusesRefreshEntries(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.Record{SensorID: 1, CPM: 10, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendRefresh([]wal.Estimate{{X: 1, Y: 2, Strength: 3, Mass: 1, Starts: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sp, err := OpenSpool(dir, SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if batch, _, err := sp.Next(10); err == nil || !strings.Contains(err.Error(), "refresh entry") {
		t.Fatalf("Next over a log with a refresh entry: batch %v, err %v; want a refusal", batch, err)
	}
}
