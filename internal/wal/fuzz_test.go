package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"radloc/internal/vfs"
)

// FuzzWALReplay throws arbitrary bytes at the recovery path as a WAL
// segment (plus a mutated copy as a second segment): Open must always
// succeed — truncating, never panicking, never looping — and the
// recovered prefix must itself replay cleanly and survive appends.
func FuzzWALReplay(f *testing.F) {
	valid := func(recs ...Record) []byte {
		var buf bytes.Buffer
		for _, r := range recs {
			raw, _ := json.Marshal(r)
			line, _ := json.Marshal(envelope{CRC: crc32.Checksum(raw, crcTable), Rec: raw})
			buf.Write(line)
			buf.WriteByte('\n')
		}
		return buf.Bytes()
	}
	f.Add([]byte{})
	f.Add([]byte("not json at all\n"))
	f.Add([]byte(`{"crc":0,"rec":{"sensorId":1,"cpm":2}}` + "\n"))
	f.Add(valid(Record{SensorID: 1, CPM: 40, Seq: 1}, Record{SensorID: 2, CPM: 41, Seq: 1}))
	f.Add(append(valid(Record{SensorID: 1, CPM: 40, Seq: 1}), []byte(`{"crc":12,"rec"`)...))
	f.Add([]byte(`{"crc":1,"rec":{"seq":18446744073709551615}}` + "\n"))
	f.Add(bytes.Repeat([]byte("\n"), 100))
	// Refresh entries: after a reading, empty, torn, orphaned at the
	// segment's start, and doubled.
	first, second := valid(Record{SensorID: 1, CPM: 40, Seq: 1}), valid(Record{SensorID: 2, CPM: 41, Seq: 1})
	refresh := jsonRefreshLine(f, []Estimate{{X: 47.25, Y: 71.5, Strength: 50.125, Mass: 0.5, Starts: 40}, {X: -0.0, Y: 1e-7, Strength: 1e21, Mass: 0.25, Starts: 2}})
	empty := jsonRefreshLine(f, []Estimate{})
	f.Add(bytes.Join([][]byte{first, refresh, second, empty}, nil))
	f.Add(bytes.Join([][]byte{first, refresh[:len(refresh)/2]}, nil))
	f.Add(bytes.Join([][]byte{refresh, first}, nil))
	f.Add(bytes.Join([][]byte{first, refresh, empty, second}, nil))
	// Three readings with refresh entries between them: a replay from
	// the last one passes a refresh entry below it.
	third := valid(Record{SensorID: 3, CPM: 42, Seq: 1})
	f.Add(bytes.Join([][]byte{first, refresh, second, empty, third, refresh}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segmentPath(dir, 0), data, 0o644); err != nil {
			t.Skip()
		}
		// A second segment whose start offset the fuzzer indirectly
		// controls via the first one's content.
		mut := append([]byte{}, data...)
		for i := range mut {
			mut[i] ^= byte(i)
		}
		if err := os.WriteFile(segmentPath(dir, 3), mut, 0o644); err != nil {
			t.Skip()
		}

		l, stats, err := Open(dir, Options{Fsync: FsyncNever, SegmentRecords: 4})
		if err != nil {
			t.Fatalf("Open must repair, not fail: %v", err)
		}
		if l.Offset() != stats.Records+3 && l.Offset() != stats.Records {
			// Records counts across surviving segments; with the hole at
			// [records0, 3) the offset is start-of-last + its count. Just
			// sanity-bound it.
			if l.Offset() > stats.Records+3 {
				t.Fatalf("offset %d beyond plausible range (stats %+v)", l.Offset(), stats)
			}
		}
		var all []uint64
		var entries []Entry
		if err := l.Replay(0, func(off uint64, e Entry) error {
			all, entries = append(all, off), append(entries, e)
			return nil
		}); err != nil {
			t.Fatalf("recovered log must replay cleanly: %v", err)
		}
		if n := uint64(len(all)); n != stats.Records {
			t.Fatalf("replayed %d records, recovery reported %d", n, stats.Records)
		}
		// Replaying from any offset yields exactly the full replay's
		// suffix from there.
		for from := uint64(0); from <= l.Offset(); from++ {
			k := 0
			for k < len(all) && all[k] < from {
				k++
			}
			i := k
			if err := l.Replay(from, func(off uint64, e Entry) error {
				if i >= len(all) || off != all[i] || !reflect.DeepEqual(e, entries[i]) {
					t.Fatalf("Replay(%d) yielded offset %d %+v, the full replay's suffix differs there", from, off, e)
				}
				i++
				return nil
			}); err != nil {
				t.Fatalf("Replay(%d): %v", from, err)
			}
			if i != len(all) {
				t.Fatalf("Replay(%d) yielded %d entries, want %d", from, i-k, len(all)-k)
			}
		}
		// The repaired log accepts appends and survives a second open
		// with no further truncation.
		if _, err := l.Append(Record{SensorID: 9, CPM: 50, Seq: 99}); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, stats2, err := Open(dir, Options{SegmentRecords: 4})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if stats2.TruncatedRecords != 0 || stats2.Records != stats.Records+1 {
			t.Fatalf("second open not clean: %+v after %+v", stats2, stats)
		}
		l2.Close()

		// Checkpoint loader on the same arbitrary bytes.
		ckDir := t.TempDir()
		os.WriteFile(filepath.Join(ckDir, "checkpoint-0000000000000007.json"), data, 0o644)
		_, _, err = LoadCheckpointFS(vfs.OS{}, ckDir)
		if retired := bytes.HasPrefix(data, []byte(retiredPrefix)); retired != errors.Is(err, ErrRetiredCheckpoint) || err != nil && !retired {
			t.Fatalf("LoadCheckpointFS must skip garbage and refuse only the retired envelope: %v", err)
		}
	})
}
