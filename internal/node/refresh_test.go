package node

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"radloc/internal/fusion"
	"radloc/internal/obs"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/track"
	"radloc/internal/vfs"
	"radloc/internal/wal"
)

// refreshBuild returns the engine constructor the refresh-replay tests
// share: Scenario A with tracking on, so the tracker's state is part of
// every comparison, counting on reg.
func refreshBuild(reg *obs.Registry) func(fusion.Journal) (*fusion.Engine, error) {
	sc := scenario.A(50, false)
	sc.Params.NumParticles = 1000
	return func(j fusion.Journal) (*fusion.Engine, error) {
		fcfg := fusion.ScenarioConfig(sc, 13)
		fcfg.Tracking = &track.Config{}
		fcfg.Journal = j
		fcfg.Metrics = reg
		return fusion.NewEngine(fcfg)
	}
}

// encodedState is the engine's exported state in its checkpoint
// encoding: equal bytes mean bit-identical engines.
func encodedState(t *testing.T, e *fusion.Engine) []byte {
	t.Helper()
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := fusion.EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// journaledRun feeds rounds of unsequenced readings (each journaled and
// applied as it arrives, so every refresh lands right after the
// reading that completes a round) through a durable engine in dir,
// checkpointing every `every` records, and leaves dir as a crash
// would: WAL synced, no final checkpoint. It returns the live engine's
// encoded state and how many refreshes it ran.
func journaledRun(t *testing.T, dir string, fsys vfs.FS, pol wal.FsyncPolicy, rounds, every int) ([]byte, uint64) {
	t.Helper()
	engine, d, err := openDurable(dir, fsys, pol, every, 0, refreshBuild(nil), nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.A(50, false)
	stream := rng.NewNamed(17, "refresh-replay/measure")
	for step := 0; step < rounds; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			if _, err := engine.IngestSeq(fusion.Meas{SensorID: sen.ID, CPM: m.CPM, Step: step}); err != nil {
				t.Fatal(err)
			}
			d.maybeCheckpoint()
		}
	}
	if err := d.log.Close(); err != nil {
		t.Fatal(err)
	}
	return encodedState(t, engine), engine.Snapshot().Refreshes
}

// bootEncoded boots dir and returns the recovered engine's encoded
// state and the refreshes its replay adopted and searched.
func bootEncoded(t *testing.T, dir string) (blob []byte, adopted, searched uint64) {
	t.Helper()
	reg := obs.NewRegistry()
	engine, d, err := openDurable(dir, nil, wal.FsyncNever, 0, 0, refreshBuild(reg), reg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	defer d.log.Close()
	a, s := fusion.ReplayRefreshes(reg)
	if rec := statez(engine.Snapshot(), d, nil).Durability.Recovery; rec.RefreshesAdopted != a.Value() || rec.RefreshesSearched != s.Value() {
		t.Fatalf("/statez recovery %+v disagrees with the counters (%d adopted, %d searched)", rec, a.Value(), s.Value())
	}
	return encodedState(t, engine), a.Value(), s.Value()
}

// rewriteSegments applies edit to the bytes of every WAL segment in
// dir.
func rewriteSegments(t *testing.T, dir string, edit func([]byte) []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.ndjson"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	for _, seg := range segs {
		blob, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(seg, edit(blob), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// stripRefreshes drops every refresh entry from a segment's bytes.
func stripRefreshes(blob []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(blob, []byte("\n")) {
		if !bytes.Contains(line, []byte(`,"refresh":`)) {
			out = append(out, line...)
		}
	}
	return out
}

// copyDir copies the regular files of src into a new directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestReplayAdoptsJournaledRefreshes: a WAL suffix whose every due
// refresh has its entry replays with zero searches, and the recovered
// engine is bit-identical both to the live one and to a replay of the
// same log with every refresh entry stripped, which searches each
// refresh instead — with and without a checkpoint under the suffix.
func TestReplayAdoptsJournaledRefreshes(t *testing.T) {
	for _, tc := range []struct {
		name        string
		every       int
		wantReplays uint64 // refreshes in the replayed suffix
	}{
		{"whole log", 0, 6},
		{"suffix past a checkpoint", 50, 1}, // newest checkpoint at 200 of 216 readings
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			live, refreshes := journaledRun(t, dir, nil, wal.FsyncNever, 6, tc.every)
			if refreshes != 6 {
				t.Fatalf("the run refreshed %d times, want 6 (one per round)", refreshes)
			}
			stripped := copyDir(t, dir)
			rewriteSegments(t, stripped, stripRefreshes)

			got, adopted, searched := bootEncoded(t, dir)
			if adopted != tc.wantReplays || searched != 0 {
				t.Fatalf("journaled replay: %d adopted, %d searched; want %d and 0", adopted, searched, tc.wantReplays)
			}
			want, adopted, searched := bootEncoded(t, stripped)
			if adopted != 0 || searched != tc.wantReplays {
				t.Fatalf("stripped replay: %d adopted, %d searched; want 0 and %d", adopted, searched, tc.wantReplays)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("the replay that adopted journaled refreshes differs from the one that searched them")
			}
			if !bytes.Equal(got, live) {
				t.Fatal("the recovered engine differs from the live one")
			}
		})
	}
}

// TestReplayCutBeforeRefreshSearchesOnce: a crash that loses the last
// refresh entry — the log cut right between the reading and its entry,
// or partway into the entry — boots to the same engine, bit for bit,
// as the uncut log, searching exactly that one refresh.
func TestReplayCutBeforeRefreshSearchesOnce(t *testing.T) {
	dir := t.TempDir()
	live, refreshes := journaledRun(t, dir, nil, wal.FsyncNever, 5, 0)
	uncut, adopted, searched := bootEncoded(t, copyDir(t, dir))
	if adopted != refreshes || searched != 0 || !bytes.Equal(uncut, live) {
		t.Fatalf("uncut log: %d adopted, %d searched of %d; equal to live: %v", adopted, searched, refreshes, bytes.Equal(uncut, live))
	}
	for _, tc := range []struct {
		name string
		keep func(entry []byte) int // bytes of the final refresh entry that survive
	}{
		{"between reading and entry", func([]byte) int { return 0 }},
		{"partway into the entry", func(entry []byte) int { return len(entry) / 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cut := copyDir(t, dir)
			rewriteSegments(t, cut, func(blob []byte) []byte {
				lines := bytes.SplitAfter(blob, []byte("\n"))
				last := lines[len(lines)-2] // the final line, before the empty tail
				if !bytes.Contains(last, []byte(`,"refresh":`)) {
					return blob // an earlier segment
				}
				return blob[:len(blob)-len(last)+tc.keep(last)]
			})
			got, adopted, searched := bootEncoded(t, cut)
			if adopted != refreshes-1 || searched != 1 {
				t.Fatalf("cut log: %d adopted, %d searched; want %d and exactly 1", adopted, searched, refreshes-1)
			}
			if !bytes.Equal(got, uncut) {
				t.Fatal("the cut log recovered a different engine than the uncut one")
			}
		})
	}
}

// walSyncCounter counts fsyncs on the WAL segments it opens. The test
// stacks vfs.Observe on it, as the daemon stacks it on the real
// filesystem.
type walSyncCounter struct {
	vfs.FS
	syncs atomic.Int64
}

// OpenFile opens path and, for a WAL segment, counts its syncs.
func (c *walSyncCounter) OpenFile(path string, flag int, perm fs.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(path, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(path), "wal-") {
		return f, err
	}
	return syncCountedFile{File: f, n: &c.syncs}, nil
}

type syncCountedFile struct {
	vfs.File
	n *atomic.Int64
}

// Sync counts one fsync and forwards it.
func (f syncCountedFile) Sync() error {
	f.n.Add(1)
	return f.File.Sync()
}

// TestRefreshEntriesAddNoSync: under fsync=always the WAL issues one
// fsync per reading, as before refresh entries existed. The entries
// ride on the next reading's sync, and a checkpoint right after one
// (the cadence here is one sensor round, so every checkpoint follows a
// refresh) syncs nothing for it.
func TestRefreshEntriesAddNoSync(t *testing.T) {
	const rounds = 3
	sensors := len(scenario.A(50, false).Sensors)
	counter := &walSyncCounter{FS: vfs.OS{}}
	dir := t.TempDir()
	journaledRun(t, dir, vfs.Observe(counter, obs.NewRegistry()), wal.FsyncAlways, rounds, sensors)
	// journaledRun closes the log, and Close always syncs the tail once
	// more; here that sync also carries the last reading's entry.
	if got, readings := counter.syncs.Load(), int64(rounds*sensors); got != readings+1 {
		t.Fatalf("%d WAL fsyncs for %d readings, want one per reading plus Close's", got, readings)
	}
	entries := 0
	rewriteSegments(t, dir, func(blob []byte) []byte {
		entries += bytes.Count(blob, []byte(`,"refresh":`))
		return blob
	})
	cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.json"))
	if entries != rounds || len(cks) == 0 {
		t.Fatalf("%d refresh entries and %d checkpoints on disk, want %d and some", entries, len(cks), rounds)
	}
}
