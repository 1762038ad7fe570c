package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"radloc/internal/vfs"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Log, RecoveryStats) {
	t.Helper()
	l, stats, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return l, stats
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		off, err := l.Append(Record{SensorID: i % 7, CPM: 30 + i, Step: i / 7, Seq: uint64(i/7 + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if off != uint64(i) {
			t.Fatalf("append %d got offset %d", i, off)
		}
	}
}

func replayAll(t *testing.T, l *Log, from uint64) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(from, func(off uint64, e Entry) error {
		if int(off) != int(from)+len(out) {
			t.Fatalf("replay offset %d, want %d", off, int(from)+len(out))
		}
		out = append(out, e.Rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, stats := mustOpen(t, dir, Options{Fsync: FsyncBatch, SegmentRecords: 10})
	if stats.Records != 0 || stats.Segments > 1 {
		t.Fatalf("fresh dir stats: %+v", stats)
	}
	appendN(t, l, 0, 35) // spans 4 segments
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, stats2 := mustOpen(t, dir, Options{SegmentRecords: 10})
	if stats2.Records != 35 || stats2.Segments != 4 || stats2.TruncatedRecords != 0 {
		t.Fatalf("reopen stats: %+v", stats2)
	}
	if l2.Offset() != 35 {
		t.Fatalf("offset %d, want 35", l2.Offset())
	}
	recs := replayAll(t, l2, 0)
	if len(recs) != 35 || recs[34].CPM != 64 {
		t.Fatalf("replay: %d records, last %+v", len(recs), recs[len(recs)-1])
	}
	if got := replayAll(t, l2, 30); len(got) != 5 || got[0].CPM != 60 {
		t.Fatalf("suffix replay: %+v", got)
	}
	// Appends continue at the recovered offset.
	appendN(t, l2, 35, 3)
	if got := replayAll(t, l2, 0); len(got) != 38 {
		t.Fatalf("post-reopen append: %d records", len(got))
	}
	l2.Close()
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, SegmentRecords: 100})
	appendN(t, l, 0, 12)
	l.Close()

	// Tear the final record mid-line (crash between write and newline).
	path := segmentPath(dir, 0)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, stats := mustOpen(t, dir, Options{})
	if stats.Records != 11 || stats.TruncatedRecords != 1 || stats.TruncatedBytes == 0 {
		t.Fatalf("torn-tail stats: %+v", stats)
	}
	if l2.Offset() != 11 {
		t.Fatalf("offset after truncation: %d", l2.Offset())
	}
	if got := replayAll(t, l2, 0); len(got) != 11 {
		t.Fatalf("replay after truncation: %d records", len(got))
	}
	// The log is writable again and the torn slot is reused.
	appendN(t, l2, 11, 1)
	l2.Close()
}

func TestBitFlipTruncatesFromCorruption(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, SegmentRecords: 5})
	appendN(t, l, 0, 14) // segments: [0,5) [5,10) [10,14)
	l.Close()

	// Flip one byte inside record 7's payload: records 7..9 die with
	// it (suffix-suspect), and the [10,14) segment is dropped whole.
	path := segmentPath(dir, 5)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(blob), "\n")
	mut := []byte(lines[2])
	mut[len(mut)/2] ^= 0x20
	lines[2] = string(mut)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	l2, stats := mustOpen(t, dir, Options{SegmentRecords: 5})
	if stats.Records != 7 || stats.TruncatedRecords != 3 || stats.DroppedSegments != 1 {
		t.Fatalf("bit-flip stats: %+v", stats)
	}
	if l2.Offset() != 7 {
		t.Fatalf("offset %d, want 7", l2.Offset())
	}
	recs := replayAll(t, l2, 0)
	if len(recs) != 7 || recs[6].CPM != 36 {
		t.Fatalf("replay: %d records", len(recs))
	}
	l2.Close()
}

func TestCheckpointRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadCheckpointFS(vfs.OS{}, dir); err != nil || ok {
		t.Fatalf("empty dir: ok=%v err=%v", ok, err)
	}
	state1, _ := json.Marshal(map[string]int{"gen": 1})
	state2, _ := json.Marshal(map[string]int{"gen": 2})
	if err := WriteCheckpointFS(vfs.OS{}, dir, Checkpoint{Applied: 100, State: state1}); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpointFS(vfs.OS{}, dir, Checkpoint{Applied: 250, State: state2}); err != nil {
		t.Fatal(err)
	}
	ck, ok, err := LoadCheckpointFS(vfs.OS{}, dir)
	if err != nil || !ok || ck.Applied != 250 || !reflect.DeepEqual([]byte(ck.State), state2) {
		t.Fatalf("load newest: ok=%v err=%v ck=%+v", ok, err, ck)
	}

	// Corrupt the newest: loader must fall back to the older one and
	// quarantine the bad file.
	path := CheckpointPath(dir, 250)
	blob, _ := os.ReadFile(path)
	blob[len(blob)/2] ^= 0xff
	os.WriteFile(path, blob, 0o644)
	ck, ok, err = LoadCheckpointFS(vfs.OS{}, dir)
	if err != nil || !ok || ck.Applied != 100 {
		t.Fatalf("fallback: ok=%v err=%v ck.Applied=%d", ok, err, ck.Applied)
	}
	if _, serr := os.Stat(path + ".bad"); serr != nil {
		t.Error("corrupt checkpoint not quarantined")
	}

	// Prune keeps the newest surviving file.
	for _, applied := range []uint64{300, 400} {
		if err := WriteCheckpointFS(vfs.OS{}, dir, Checkpoint{Applied: applied, State: state1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneCheckpointsFS(vfs.OS{}, dir, 1); err != nil {
		t.Fatal(err)
	}
	if _, serr := os.Stat(CheckpointPath(dir, 100)); !os.IsNotExist(serr) {
		t.Error("old checkpoint survived pruning")
	}
	if ck, ok, _ := LoadCheckpointFS(vfs.OS{}, dir); !ok || ck.Applied != 400 {
		t.Fatalf("after prune: ok=%v applied=%d", ok, ck.Applied)
	}
}

func TestPruneSegmentsAndAlignTo(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Fsync: FsyncNever, SegmentRecords: 5})
	appendN(t, l, 0, 17)
	if err := l.Prune(10); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(segmentPath(dir, 0)); !os.IsNotExist(err) {
		t.Error("covered segment [0,5) survived pruning")
	}
	if got := replayAll(t, l, 10); len(got) != 7 {
		t.Fatalf("replay after prune: %d records", len(got))
	}

	// Checkpoint ahead of the log (tail truncated after a checkpoint):
	// AlignTo must open a fresh segment so offsets never collide.
	if err := l.AlignTo(40); err != nil {
		t.Fatal(err)
	}
	if l.Offset() != 40 {
		t.Fatalf("offset after align: %d", l.Offset())
	}
	appendN(t, l, 40, 2)
	l.Close()

	l2, stats := mustOpen(t, dir, Options{SegmentRecords: 5})
	if l2.Offset() != 42 {
		t.Fatalf("reopen offset %d, want 42 (stats %+v)", l2.Offset(), stats)
	}
	if got := replayAll(t, l2, 40); len(got) != 2 {
		t.Fatalf("replay across the hole: %d records", len(got))
	}
	l2.Close()
}

func TestForeignFilesQuarantined(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "wal-nothex.ndjson"), []byte("junk\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("operator notes"), 0o644)
	l, stats := mustOpen(t, dir, Options{})
	if stats.DroppedSegments != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	appendN(t, l, 0, 1)
	l.Close()
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Error("unrelated file touched")
	}
}

// TestLoadCheckpointSetAsideKeepsEarlierBad: boot's set-aside of a
// corrupt checkpoint must not clobber an earlier .bad file at the same
// offset — both pieces of evidence survive, under collision-safe names.
func TestLoadCheckpointSetAsideKeepsEarlierBad(t *testing.T) {
	dir := t.TempDir()
	path := CheckpointPath(dir, 250)
	var corrupted [][]byte
	for gen := 1; gen <= 2; gen++ {
		state, _ := json.Marshal(map[string]int{"gen": gen})
		if err := WriteCheckpointFS(vfs.OS{}, dir, Checkpoint{Applied: 250, State: state}); err != nil {
			t.Fatal(err)
		}
		blob, _ := os.ReadFile(path)
		blob[len(blob)-2] ^= 0xff
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = append(corrupted, blob)
		if _, ok, err := LoadCheckpointFS(vfs.OS{}, dir); err != nil || ok {
			t.Fatalf("generation %d: corrupt checkpoint loaded: ok=%v err=%v", gen, ok, err)
		}
	}
	for i, name := range []string{path + ".bad", path + ".bad.1"} {
		got, err := os.ReadFile(name)
		if err != nil || !reflect.DeepEqual(got, corrupted[i]) {
			t.Errorf("%s does not hold corrupt generation %d (err %v)", filepath.Base(name), i+1, err)
		}
	}
}

// TestLoadCheckpointRefusesRetiredEnvelope: a checkpoint in the JSON
// envelope older releases wrote fails the load with
// ErrRetiredCheckpoint, naming the file, and stays in place; it is not
// skipped for an older checkpoint, which could silently lose the
// records pruned below it. The scrubber's verify pass counts it bad.
func TestLoadCheckpointRefusesRetiredEnvelope(t *testing.T) {
	dir := t.TempDir()
	state := []byte(`{"gen":1}`)
	if err := WriteCheckpointFS(vfs.OS{}, dir, Checkpoint{Applied: 50, State: state}); err != nil {
		t.Fatal(err)
	}
	retired, _ := json.Marshal(struct {
		CRC     uint32          `json:"crc"`
		Applied uint64          `json:"applied"`
		State   json.RawMessage `json:"state"`
	}{crc32.Checksum(state, crcTable), 100, state})
	path := CheckpointPath(dir, 100)
	if err := os.WriteFile(path, retired, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, ok, err := LoadCheckpointFS(vfs.OS{}, dir)
	if !errors.Is(err, ErrRetiredCheckpoint) || !strings.Contains(err.Error(), path) || ok {
		t.Fatalf("retired checkpoint: ok=%v err=%v ck=%+v; want ErrRetiredCheckpoint naming %s", ok, err, ck, path)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, retired) {
		t.Fatalf("the retired checkpoint did not stay in place: %v", err)
	}
	if bad, err := VerifyCheckpoints(vfs.OS{}, dir); err != nil || !reflect.DeepEqual(bad, []uint64{100}) {
		t.Fatalf("verify over a retired checkpoint: bad=%v err=%v", bad, err)
	}

	if err := WriteCheckpointFS(vfs.OS{}, dir, Checkpoint{Applied: 200, State: state}); err != nil {
		t.Fatal(err)
	}
	blob, _ := os.ReadFile(CheckpointPath(dir, 200))
	if !strings.HasPrefix(string(blob), ckptMagic) || len(blob) != ckptHeader+len(state) {
		t.Fatalf("new checkpoint is not in the binary envelope: %q", blob)
	}
	if ck, ok, err := LoadCheckpointFS(vfs.OS{}, dir); err != nil || !ok || ck.Applied != 200 {
		t.Fatalf("a newer binary checkpoint: ok=%v err=%v applied=%d", ok, err, ck.Applied)
	}
}

// TestCheckpointScansIgnoreNonCanonicalNames: the load, verify, prune
// and move scans share one name parse, and a file whose name is not
// the one checkpointPath would give its offset is never touched.
func TestCheckpointScansIgnoreNonCanonicalNames(t *testing.T) {
	dir := t.TempDir()
	odd := filepath.Join(dir, "checkpoint-ff.json")
	if err := os.WriteFile(odd, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, applied := range []uint64{10, 20} {
		if err := WriteCheckpointFS(vfs.OS{}, dir, Checkpoint{Applied: applied, State: []byte("{}")}); err != nil {
			t.Fatal(err)
		}
	}
	if ck, ok, err := LoadCheckpointFS(vfs.OS{}, dir); err != nil || !ok || ck.Applied != 20 {
		t.Fatalf("load: ok=%v err=%v applied=%d", ok, err, ck.Applied)
	}
	if bad, err := VerifyCheckpoints(vfs.OS{}, dir); err != nil || len(bad) != 0 {
		t.Fatalf("verify: bad=%v err=%v", bad, err)
	}
	if err := PruneCheckpointsFS(vfs.OS{}, dir, 1); err != nil {
		t.Fatal(err)
	}
	if moved, err := MoveCheckpointsFS(vfs.OS{}, dir, 0, filepath.Join(dir, "moved")); err != nil || moved != 1 {
		t.Fatalf("move: moved=%d err=%v", moved, err)
	}
	if _, err := os.Stat(odd); err != nil {
		t.Errorf("non-canonical file was touched: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "moved", filepath.Base(CheckpointPath(dir, 20)))); err != nil {
		t.Errorf("newest checkpoint not moved: %v", err)
	}
}
