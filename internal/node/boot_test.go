package node

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/scenario"
	"radloc/internal/vfs"
	"radloc/internal/wal"
	"radloc/internal/zone"
)

// bootTestConfig is a durable node over dir with a small filter, so a
// seven-zone boot stays quick.
func bootTestConfig(dir string, maxZones int, logw io.Writer, fsys vfs.FS) Config {
	sc := scenario.A(50, false)
	sc.Params.NumParticles = 300
	return Config{
		Scenario:        sc,
		Seed:            3,
		NoTracks:        true,
		ReorderWindow:   1,
		WALDir:          dir,
		Fsync:           wal.FsyncNever,
		CheckpointEvery: 25,
		MaxZones:        maxZones,
		Log:             logw,
		FS:              fsys,
	}
}

// closedState is the ExportState of an engine whose zone has closed.
func closedState(t *testing.T, e *fusion.Engine) fusion.EngineState {
	t.Helper()
	st, err := e.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// exportedState renders engine state as bytes. With noGate the
// reorder gate's delivery counters are zeroed: WAL replay bypasses the
// gate, so a zone recovered without a checkpoint rebuilds everything
// but that bookkeeping.
func exportedState(t *testing.T, st fusion.EngineState, noGate bool) []byte {
	t.Helper()
	if noGate {
		st.Delivery = fusion.DeliveryStats{}
	}
	blob, err := fusion.EncodeState(st)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// checkZoneStates compares each named live zone's state with want.
func checkZoneStates(t *testing.T, zs *zoneSet, names []string, want map[string]*fusion.Engine, replayed map[string]bool) {
	t.Helper()
	for _, name := range names {
		z, ok := zs.manager.Lookup(name)
		if !ok {
			t.Fatalf("zone %s not live", name)
		}
		if !bytes.Equal(exportedState(t, zoneState(t, z), replayed[name]), exportedState(t, closedState(t, want[name]), replayed[name])) {
			t.Errorf("zone %s: recovered state differs from pre-shutdown state", name)
		}
	}
}

// zoneLoops counts live zone event-loop goroutines in the process.
func zoneLoops() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "radloc/internal/zone.(*Zone).loop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestParallelRecoveryDeterministic boots seven zones' state (default
// plus z1..z6) concurrently and checks that the outcome is the one
// sequential name-order recovery gives: under MaxZones 4 the recovered
// set is default plus the sorted prefix z1..z3, the recovery log lists
// every zone in name order, every zone's state is bit-identical to its
// pre-shutdown state (gate counters aside for zones that recover from
// the WAL alone), and one zone whose storage refuses opens fails New with
// that zone's name and no zone goroutine left running.
func TestParallelRecoveryDeterministic(t *testing.T) {
	dir := t.TempDir()
	named := []string{"z1", "z2", "z3", "z4", "z5", "z6"}
	all := append([]string{zone.DefaultZone}, named...)

	// Lay down distinct per-zone streams and shut down cleanly.
	nd, err := New(bootTestConfig(dir, 8, io.Discard, nil))
	if err != nil {
		t.Fatal(err)
	}
	sc := scenario.A(50, false)
	for i, line := range seqMeasurementsNDJSON(t, sc, 12) {
		var m measurementJSON
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatal(err)
		}
		name := all[i%len(all)]
		if _, err := nd.zs.manager.Submit(context.Background(), name, []fusion.Meas{m.Meas}); err != nil {
			t.Fatalf("submit to %s: %v", name, err)
		}
	}
	engines := map[string]*fusion.Engine{}
	for _, name := range all {
		z, _ := nd.zs.manager.Lookup(name)
		engines[name] = engineOf(t, z)
	}
	if err := nd.Shutdown(); err != nil {
		t.Fatal(err)
	}
	// Half the zones lose their checkpoints, so their state can only
	// come back through WAL replay.
	replayed := map[string]bool{zone.DefaultZone: true, "z2": true, "z4": true, "z6": true}
	for name := range replayed {
		zdir := dir
		if name != zone.DefaultZone {
			zdir = filepath.Join(dir, "zones", name)
		}
		cks, _ := filepath.Glob(filepath.Join(zdir, "checkpoint-*.json"))
		for _, ck := range cks {
			if err := os.Remove(ck); err != nil {
				t.Fatal(err)
			}
		}
	}

	var logbuf bytes.Buffer
	capped, err := New(bootTestConfig(dir, 4, &logbuf, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got, wantNames := capped.zs.manager.Names(), all[:4]; !reflect.DeepEqual(got, wantNames) {
		t.Fatalf("recovered zones = %v, want the sorted prefix %v", got, wantNames)
	}
	lines := strings.Split(strings.TrimSpace(logbuf.String()), "\n")
	if len(lines) != len(all) {
		t.Fatalf("boot log has %d lines, want %d:\n%s", len(lines), len(all), logbuf.String())
	}
	for i, name := range all {
		prefix := fmt.Sprintf("radlocd: durability on (%s,", filepath.Join(dir, "zones", name))
		switch {
		case name == zone.DefaultZone:
			prefix = fmt.Sprintf("radlocd: durability on (%s,", dir)
		case i >= 4:
			prefix = fmt.Sprintf("radlocd: zone %q left on disk", name)
		}
		if !strings.HasPrefix(lines[i], prefix) {
			t.Errorf("boot log line %d = %q, want prefix %q", i, lines[i], prefix)
		}
	}
	checkZoneStates(t, capped.zs, all[:4], engines, replayed)
	if err := capped.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Uncapped, every zone comes back, the ones left on disk included.
	full, err := New(bootTestConfig(dir, 8, io.Discard, nil))
	if err != nil {
		t.Fatal(err)
	}
	checkZoneStates(t, full.zs, all, engines, replayed)
	if err := full.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// One zone's storage refuses opens: New names it and leaves no zone
	// running.
	before := zoneLoops()
	faulty := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 1})
	faulty.FailOpensUnder(filepath.Join(dir, "zones", "z2"), nil)
	if _, err := New(bootTestConfig(dir, 4, io.Discard, faulty)); err == nil {
		t.Fatal("New succeeded with zone z2's storage refusing opens")
	} else if !strings.Contains(err.Error(), `"z2"`) {
		t.Fatalf("New error %q does not name zone z2", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for zoneLoops() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d zone goroutines still running after New failed (had %d before)", zoneLoops(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBootOnFlakyDisk: a disk whose file writes fail half the time
// still boots a durable node for every seed. Only file writes draw the
// probabilistic faults, so directory creation at boot never fails and
// the serving faults depend on the seed alone.
func TestBootOnFlakyDisk(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		faulty := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: seed, WriteErrProb: 0.5})
		n, err := New(bootTestConfig(t.TempDir(), 4, io.Discard, faulty))
		if err != nil {
			t.Fatalf("seed %d: boot failed: %v", seed, err)
		}
		// The final checkpoint may meet an injected fault; only the boot
		// is under test.
		_ = n.Shutdown()
	}
}
