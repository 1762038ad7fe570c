package node

// Regression tests for the on-disk cluster stores: a corrupt or
// truncated epoch file must never stop the daemon from booting — it
// is quarantined to .bad and the zone starts at epoch 0 — and the
// learned-routes cache behaves the same way.

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"radloc/internal/cluster"
	"radloc/internal/scenario"
	"radloc/internal/vfs"
	"radloc/internal/wal"
)

// newStoreZoneSet boots a minimal durable node rooted at dir and
// returns its zone set.
func newStoreZoneSet(t *testing.T, dir string, logw io.Writer) *zoneSet {
	t.Helper()
	return bootNode(t, Config{
		Scenario: scenario.A(50, false), Seed: 3, NoTracks: true,
		WALDir: dir, Fsync: wal.FsyncNever, CheckpointEvery: 50, MaxZones: 8, Log: logw,
	}).zs
}

func TestFileEpochStoreCorruptFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	var logbuf strings.Builder
	zs := newStoreZoneSet(t, dir, &logbuf)
	s := &fileEpochStore{zs: zs}

	path := filepath.Join(zs.zoneWalDir("default"), epochFileName)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"epoch": 7, "sta`), 0o644); err != nil {
		t.Fatal(err) // a truncated write, as a crash mid-rename could leave
	}

	meta, err := s.Load("default")
	if err != nil {
		t.Fatalf("corrupt epoch file failed the load: %v", err)
	}
	if meta.Epoch != 0 || len(meta.Starts) != 0 {
		t.Fatalf("corrupt epoch file yielded meta %+v, want zero", meta)
	}
	if !strings.Contains(logbuf.String(), "corrupt "+epochFileName) {
		t.Fatalf("no warning logged, got: %q", logbuf.String())
	}
	// The evidence survives as .bad and the live name is free again.
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Fatalf("bad epoch file not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt epoch file still in place under its live name")
	}
	// A second load (file now missing) is a clean epoch 0, no error.
	if meta, err := s.Load("default"); err != nil || meta.Epoch != 0 {
		t.Fatalf("load after quarantine: meta %+v, err %v", meta, err)
	}
}

// TestFileEpochStoreRefusesRetiredAndRoundTrip: a bare {"epoch":N}
// past the first epoch, from before the store kept start history, is a
// retired format: Load fails naming the file (the history cannot be
// guessed safely) and leaves the file in place. A first-epoch file
// needs no history; full metadata round-trips.
func TestFileEpochStoreRefusesRetiredAndRoundTrip(t *testing.T) {
	dir := t.TempDir()
	zs := newStoreZoneSet(t, dir, io.Discard)
	s := &fileEpochStore{zs: zs}

	path := filepath.Join(zs.zoneWalDir("default"), epochFileName)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(`{"epoch":3}`), 0o644); err != nil {
		t.Fatal(err)
	}
	meta, err := s.Load("default")
	if !errors.Is(err, cluster.ErrNoEpochStart) || !strings.Contains(err.Error(), path) {
		t.Fatalf("retired epoch file: meta %+v, err %v; want ErrNoEpochStart naming %s", meta, err, path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("the retired epoch file did not stay in place: %v", err)
	}
	if err := os.WriteFile(path, []byte(`{"epoch":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if meta, err := s.Load("default"); err != nil || meta.Epoch != 1 {
		t.Fatalf("first-epoch file: meta %+v, err %v", meta, err)
	}

	// Full round-trip with start history.
	want := cluster.EpochMeta{Epoch: 5, Starts: []cluster.EpochStart{{Epoch: 4, Start: 10}, {Epoch: 5, Start: 42}}}
	if err := s.Save("default", want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("default")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(got)
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("epoch meta round-trip: got %s, want %s", gotJSON, wantJSON)
	}
}

// TestFileEpochStoreSaveSyncs: an epoch save is durable before it
// reports success. A failing fsync must fail the save and leave the
// previously saved epoch in place, or a node that promoted itself could
// come back after power loss in an epoch it had already left.
func TestFileEpochStoreSaveSyncs(t *testing.T) {
	dir := t.TempDir()
	zs := newStoreZoneSet(t, dir, io.Discard)
	s := &fileEpochStore{zs: zs}
	old := cluster.EpochMeta{Epoch: 4, Starts: []cluster.EpochStart{{Epoch: 4, Start: 10}}}
	if err := s.Save("default", old); err != nil {
		t.Fatal(err)
	}

	faulty := vfs.NewFaulty(nil, vfs.FaultConfig{})
	faulty.FailSyncs(syscall.EIO)
	zs.fs = faulty
	next := cluster.EpochMeta{Epoch: 5, Starts: []cluster.EpochStart{{Epoch: 4, Start: 10}, {Epoch: 5, Start: 42}}}
	if err := s.Save("default", next); !errors.Is(err, syscall.EIO) {
		t.Fatalf("save under a failing fsync returned %v, want EIO", err)
	}

	faulty.Heal()
	got, err := s.Load("default")
	if err != nil || got.Epoch != old.Epoch || len(got.Starts) != len(old.Starts) {
		t.Fatalf("after a failed save: meta %+v, err %v; want the saved epoch %+v", got, err, old)
	}
	ents, err := os.ReadDir(zs.zoneWalDir("default"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("failed save left temp file %s", e.Name())
		}
	}
}

func TestFileRouteStoreRoundTripAndCorruption(t *testing.T) {
	dir := t.TempDir()
	var logbuf strings.Builder
	s := &fileRouteStore{dir: dir, logw: &logbuf}

	// Missing file: empty table, no error.
	if r, err := s.Load(); err != nil || len(r.Zones) != 0 {
		t.Fatalf("missing routes file: %+v, err %v", r, err)
	}

	want := cluster.Routes{Zones: map[string]cluster.Route{
		"west": {Primary: "http://a", Standby: "http://b", Epoch: 4},
	}}
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if rt := got.Zones["west"]; rt != want.Zones["west"] {
		t.Fatalf("routes round-trip: got %+v, want %+v", rt, want.Zones["west"])
	}

	// Corruption: quarantined to .bad, empty table returned.
	path := filepath.Join(dir, routesFileName)
	if err := os.WriteFile(path, []byte(`{"zones": nope`), 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := s.Load(); err != nil || len(r.Zones) != 0 {
		t.Fatalf("corrupt routes file: %+v, err %v", r, err)
	}
	if _, err := os.Stat(path + ".bad"); err != nil {
		t.Fatalf("bad routes file not quarantined: %v", err)
	}
	if !strings.Contains(logbuf.String(), "corrupt "+routesFileName) {
		t.Fatalf("no warning logged, got: %q", logbuf.String())
	}
}

// TestClusterStoresKeepEveryCorruptFile loads a corrupt epoch file and
// a corrupt routes file twice each: the second set-aside must not
// overwrite the first, so both corrupt versions survive as evidence.
// A set-aside whose rename fails says so in the log line.
func TestClusterStoresKeepEveryCorruptFile(t *testing.T) {
	dir := t.TempDir()
	var logbuf strings.Builder
	zs := newStoreZoneSet(t, dir, &logbuf)
	epochs := &fileEpochStore{zs: zs}
	routes := &fileRouteStore{dir: dir, logw: &logbuf}
	stores := []struct {
		name string
		path string
		load func() error
	}{
		{"epoch", filepath.Join(zs.zoneWalDir("default"), epochFileName),
			func() error { _, err := epochs.Load("default"); return err }},
		{"routes", filepath.Join(dir, routesFileName),
			func() error { _, err := routes.Load(); return err }},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			for i, corrupt := range []string{`{"first": tor`, `{"second": tor`} {
				if err := os.WriteFile(st.path, []byte(corrupt), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := st.load(); err != nil {
					t.Fatalf("corrupt load %d failed: %v", i+1, err)
				}
			}
			for bad, want := range map[string]string{
				st.path + ".bad":   `{"first": tor`,
				st.path + ".bad.1": `{"second": tor`,
			} {
				got, err := os.ReadFile(bad)
				if err != nil || string(got) != want {
					t.Errorf("%s = %q (err %v), want %q", filepath.Base(bad), got, err, want)
				}
			}
		})
	}

	// A rename the disk refuses leaves the file in place and the log
	// names no destination that does not exist.
	faulty := vfs.NewFaulty(nil, vfs.FaultConfig{})
	faulty.FailWrites(syscall.EIO, false)
	zs.fs, routes.fs = faulty, faulty
	for _, st := range stores {
		logbuf.Reset()
		if err := os.WriteFile(st.path, []byte(`{"third": tor`), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := st.load(); err != nil {
			t.Fatalf("%s: corrupt load with a failing rename: %v", st.name, err)
		}
		if !strings.Contains(logbuf.String(), "moved to nowhere (rename failed: ") {
			t.Errorf("%s: failed rename not reported: %q", st.name, logbuf.String())
		}
	}
}
