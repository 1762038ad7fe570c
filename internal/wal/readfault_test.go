package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"radloc/internal/vfs"
)

// armAfterFirstRead arms a Faulty's read errors once the first Read
// through any file it opens has returned — so the failure lands after
// validation's first 64 KiB buffer fill, with a partial line buffered.
type armAfterFirstRead struct {
	*vfs.Faulty
	armed bool
}

// Open implements vfs.FS.
func (a *armAfterFirstRead) Open(path string) (vfs.File, error) {
	f, err := a.Faulty.Open(path)
	if err != nil {
		return nil, err
	}
	return &armingFile{File: f, fs: a}, nil
}

type armingFile struct {
	vfs.File
	fs *armAfterFirstRead
}

// Read implements io.Reader.
func (f *armingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	if !f.fs.armed {
		f.fs.armed = true
		f.fs.FailReads(syscall.EIO)
	}
	return n, err
}

// segmentBytes snapshots every segment file in dir.
func segmentBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[p] = b
	}
	return out
}

// TestOpenReadErrorLeavesSegmentsIntact: a read error while Open
// validates a segment is not a torn tail. Open must fail with that
// error and leave every segment byte-identical — whether the error hits
// a segment's first read or a later one with a partial line buffered —
// and once the disk heals Open recovers every record.
func TestOpenReadErrorLeavesSegmentsIntact(t *testing.T) {
	const total, perSegment = 3000, 1500
	for _, tc := range []struct {
		name string
		fs   func(*vfs.Faulty) vfs.FS
	}{
		{"first read", func(f *vfs.Faulty) vfs.FS { f.FailReads(syscall.EIO); return f }},
		{"after first buffer fill", func(f *vfs.Faulty) vfs.FS { return &armAfterFirstRead{Faulty: f} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{SegmentRecords: perSegment, Fsync: FsyncNever})
			appendN(t, l, 0, total)
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			before := segmentBytes(t, dir)
			if len(before) != total/perSegment {
				t.Fatalf("%d segments on disk, want %d", len(before), total/perSegment)
			}
			for p, b := range before {
				if len(b) <= 64<<10 || b[64<<10-1] == '\n' {
					t.Fatalf("%s: %d bytes; the fault must land mid-line past the first buffer fill", p, len(b))
				}
			}

			faulty := vfs.NewFaulty(nil, vfs.FaultConfig{})
			if _, _, err := Open(dir, Options{SegmentRecords: perSegment, FS: tc.fs(faulty)}); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Open under a read fault = %v, want EIO", err)
			}
			after := segmentBytes(t, dir)
			if len(after) != len(before) {
				t.Fatalf("segment files: %d after the failed Open, %d before", len(after), len(before))
			}
			for p, b := range before {
				if !bytes.Equal(after[p], b) {
					t.Fatalf("%s changed on disk (%d → %d bytes)", p, len(b), len(after[p]))
				}
			}

			faulty.Heal()
			l, stats := mustOpen(t, dir, Options{SegmentRecords: perSegment, FS: faulty})
			defer l.Close()
			if stats.Records != total || stats.TruncatedRecords != 0 {
				t.Fatalf("healed Open: %+v, want %d records and no truncation", stats, total)
			}
			if got := len(replayAll(t, l, 0)); got != total {
				t.Fatalf("replayed %d records, want %d", got, total)
			}
		})
	}
}
