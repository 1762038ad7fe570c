package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/vfs"
	"radloc/internal/wal"
)

// seqMeasurementsNDJSON renders `steps` rounds of sequence-stamped
// readings (the full wire form: step + seq).
func seqMeasurementsNDJSON(t *testing.T, sc scenario.Scenario, steps int) []string {
	t.Helper()
	stream := rng.NewNamed(9, "radlocd-test/measure")
	var lines []string
	for step := 0; step < steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			lines = append(lines, fmt.Sprintf(`{"sensorId":%d,"cpm":%d,"step":%d,"seq":%d}`, sen.ID, m.CPM, step, step+1))
		}
	}
	return lines
}

// buildDaemon compiles the radlocd binary for exec-level crash tests.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "radlocd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build radlocd: %v\n%s", err, out)
	}
	return bin
}

func lastSnapshotLine(t *testing.T, output string) snapshotJSON {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(output), "\n")
	var snap snapshotJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &snap); err != nil {
		t.Fatalf("last output line is not a snapshot: %v\n%s", err, output)
	}
	return snap
}

// filterState strips the delivery bookkeeping from a snapshot, leaving
// the fields that must be invariant under crash/redelivery/reordering.
func filterState(s snapshotJSON) snapshotJSON {
	s.Delivery = nil
	s.Journaled = 0
	s.Malformed = 0
	return s
}

// TestKillAndRecover is the headline durability criterion: SIGKILL the
// daemon mid-stream, restart it on the same WAL directory with
// at-least-once redelivery of the whole stream, and the final snapshot
// — estimates, ingested/rejected counters, tracks — must be identical
// to a never-interrupted run.
func TestKillAndRecover(t *testing.T) {
	bin := buildDaemon(t)
	deploy, sc := writeDeployment(t)
	lines := seqMeasurementsNDJSON(t, sc, 10)
	stream := strings.Join(lines, "\n") + "\n"
	args := func(dir string) []string {
		return []string{"-config", deploy, "-seed", "2", "-wal-dir", dir,
			"-fsync", "always", "-checkpoint-every", "100"}
	}

	// Reference: one uninterrupted run.
	refDir := filepath.Join(t.TempDir(), "wal-ref")
	ref := exec.Command(bin, args(refDir)...)
	ref.Stdin = strings.NewReader(stream)
	refOut, err := ref.Output()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	want := lastSnapshotLine(t, string(refOut))
	if want.Ingested != uint64(10*len(sc.Sensors)) {
		t.Fatalf("reference ingested %d", want.Ingested)
	}

	// Crash run: feed half the stream, SIGKILL once it has made
	// progress, leaving the WAL mid-round with no clean shutdown.
	crashDir := filepath.Join(t.TempDir(), "wal-crash")
	crash := exec.Command(bin, args(crashDir)...)
	stdin, err := crash.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	var crashOut lockedBuffer
	crash.Stdout = &crashOut
	if err := crash.Start(); err != nil {
		t.Fatal(err)
	}
	// Feed 7 of 10 rounds: with the default reorder window (4) the
	// daemon journals rounds 1–3 and checkpoints past 100 records, so
	// the restart exercises checkpoint import AND WAL replay AND
	// redelivery dedup at once.
	part := 7 * len(sc.Sensors)
	if _, err := io.WriteString(stdin, strings.Join(lines[:part], "\n")+"\n"); err != nil {
		t.Fatal(err)
	}
	// Wait until it has visibly chewed through most of that (one
	// snapshot line per sensor round), then pull the plug.
	deadline := time.Now().Add(20 * time.Second)
	for strings.Count(crashOut.String(), "\n") < 5 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if crashOut.Len() == 0 {
		t.Fatal("daemon produced no snapshot before the kill window")
	}
	if err := crash.Process.Kill(); err != nil { // SIGKILL: no cleanup runs
		t.Fatal(err)
	}
	_ = crash.Wait()
	stdin.Close()

	// Recovery run: same WAL dir, the WHOLE stream redelivered
	// (at-least-once transport semantics) — dedup cursors shed what
	// recovery already has.
	rec := exec.Command(bin, args(crashDir)...)
	rec.Stdin = strings.NewReader(stream)
	var recErr bytes.Buffer
	rec.Stderr = &recErr
	recOut, err := rec.Output()
	if err != nil {
		t.Fatalf("recovery run: %v\n%s", err, recErr.String())
	}
	if !strings.Contains(recErr.String(), "durability on") {
		t.Errorf("no recovery report on stderr:\n%s", recErr.String())
	}
	got := lastSnapshotLine(t, string(recOut))
	if got.Delivery == nil || got.Delivery.Duplicates == 0 {
		t.Errorf("redelivery produced no duplicate suppression: %+v", got.Delivery)
	}
	if !reflect.DeepEqual(filterState(got), filterState(want)) {
		t.Fatalf("crash+recover+redeliver diverged from uninterrupted run:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestPipeDupReorderEquivalence runs the daemon end to end on a
// duplicated, shuffled-within-window delivery of a sequenced stream
// and demands the exact final snapshot of the clean in-order run.
func TestPipeDupReorderEquivalence(t *testing.T) {
	deploy, sc := writeDeployment(t)
	lines := seqMeasurementsNDJSON(t, sc, 6)

	var cleanOut bytes.Buffer
	if err := run(context.Background(), []string{"-config", deploy, "-seed", "2"},
		strings.NewReader(strings.Join(lines, "\n")+"\n"), &cleanOut); err != nil {
		t.Fatal(err)
	}
	want := lastSnapshotLine(t, cleanOut.String())

	doubled := make([]string, 0, 2*len(lines))
	for _, ln := range lines {
		doubled = append(doubled, ln, ln)
	}
	shuffle := rng.NewNamed(21, "radlocd-test/shuffle")
	const span = 12
	for i := range doubled {
		j := i + shuffle.IntN(span)
		if j >= len(doubled) {
			j = len(doubled) - 1
		}
		doubled[i], doubled[j] = doubled[j], doubled[i]
	}
	var messyOut bytes.Buffer
	if err := run(context.Background(), []string{"-config", deploy, "-seed", "2"},
		strings.NewReader(strings.Join(doubled, "\n")+"\n"), &messyOut); err != nil {
		t.Fatal(err)
	}
	got := lastSnapshotLine(t, messyOut.String())
	if got.Delivery == nil || got.Delivery.Duplicates != uint64(len(lines)) {
		t.Errorf("duplicate counter: %+v", got.Delivery)
	}
	if !reflect.DeepEqual(filterState(got), filterState(want)) {
		t.Fatalf("duplicated+shuffled delivery diverged:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestConcurrentIngestShutdownDurability hammers the HTTP ingest from
// several goroutines, shuts down mid-flight (what SIGTERM does via
// signal.NotifyContext), and verifies the WAL and the final checkpoint
// agree with each other and with every acknowledged reading. Run under
// -race this also exercises the engine/journal/checkpointer locking.
func TestConcurrentIngestShutdownDurability(t *testing.T) {
	deploy, sc := writeDeployment(t)
	dir := filepath.Join(t.TempDir(), "wal")
	ctx, cancel := context.WithCancel(context.Background())
	out := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-config", deploy, "-listen", "127.0.0.1:0",
			"-wal-dir", dir, "-fsync", "batch", "-checkpoint-every", "40"},
			strings.NewReader(""), out)
	}()
	var url string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" && time.Now().Before(deadline) {
		if s := out.String(); strings.Contains(s, "http://") {
			s = s[strings.Index(s, "http://"):]
			url = strings.Fields(s)[0]
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if url == "" {
		t.Fatalf("daemon never announced its address:\n%s", out.String())
	}

	const workers, rounds = 4, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := rng.NewNamed(uint64(100+w), "sigterm-test/measure")
			for step := 0; step < rounds; step++ {
				var batch []measurementJSON
				for _, sen := range sc.Sensors {
					if sen.ID%workers != w {
						continue
					}
					m := sen.Measure(stream, sc.Sources, nil, step)
					batch = append(batch, measurementJSON{Meas: fusion.Meas{SensorID: sen.ID, CPM: m.CPM, Step: step, Seq: uint64(step + 1)}})
				}
				body, _ := json.Marshal(batch)
				resp, err := http.Post(url+"/measurements", "application/json", bytes.NewReader(body))
				if err != nil {
					return // server shutting down under us is fine
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	cancel() // SIGTERM path: graceful drain, gate flush, final checkpoint
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown not clean: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit")
	}

	// The disk must be self-consistent: checkpoint present, aligned
	// with the WAL end, and the WAL replays without error.
	l, stats, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if stats.TruncatedRecords != 0 {
		t.Errorf("graceful shutdown left a torn tail: %+v", stats)
	}
	ck, ok, err := wal.LoadCheckpointFS(vfs.OS{}, dir)
	if err != nil || !ok {
		t.Fatalf("no final checkpoint: ok=%v err=%v", ok, err)
	}
	if ck.Applied != l.Offset() {
		t.Errorf("final checkpoint applied=%d, WAL offset=%d", ck.Applied, l.Offset())
	}
	st, err := fusion.DecodeState(ck.State)
	if err != nil {
		t.Fatalf("final checkpoint state unreadable: %v", err)
	}
	if st.Ingested == 0 || st.Journaled != ck.Applied {
		t.Errorf("checkpoint state inconsistent: ingested=%d journaled=%d applied=%d", st.Ingested, st.Journaled, ck.Applied)
	}
}

func TestRunRejectsBadFsyncPolicy(t *testing.T) {
	deploy, _ := writeDeployment(t)
	var out bytes.Buffer
	err := run(context.Background(), []string{"-config", deploy, "-wal-dir", t.TempDir(), "-fsync", "sometimes"},
		strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "fsync") {
		t.Fatalf("bad fsync policy accepted: %v", err)
	}
}
