package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"radloc/internal/config"
	"radloc/internal/rng"
	"radloc/internal/scenario"
)

// writeDeployment saves Scenario A (50 µCi) as a config file and
// returns its path plus the scenario.
func writeDeployment(t *testing.T) (string, scenario.Scenario) {
	t.Helper()
	sc := scenario.A(50, false)
	data, err := config.SaveScenario(sc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "deploy.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, sc
}

// measurementsNDJSON renders `steps` rounds of readings.
func measurementsNDJSON(t *testing.T, sc scenario.Scenario, steps int) string {
	t.Helper()
	stream := rng.NewNamed(9, "radlocd-test/measure")
	var b strings.Builder
	for step := 0; step < steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			fmt.Fprintf(&b, `{"sensorId":%d,"cpm":%d}`+"\n", sen.ID, m.CPM)
		}
	}
	return b.String()
}

func TestRunFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, strings.NewReader(""), &out); err == nil {
		t.Error("missing -config accepted")
	}
	if err := run(context.Background(), []string{"-config", "/nope.json"}, strings.NewReader(""), &out); err == nil {
		t.Error("unreadable config accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-config", bad}, strings.NewReader(""), &out); err == nil {
		t.Error("invalid config accepted")
	}
	// Deleted knobs fail at flag parsing: pipe mode applies every
	// reading (no -queue), -http-queue is the one load-shedding bound
	// (no -zone-mailbox), and GOMAXPROCS is the one parallelism setting
	// (no -weight-workers or -ms-workers).
	good, _ := writeDeployment(t)
	for _, gone := range [][2]string{{"-queue", "8"}, {"-zone-mailbox", "8"}, {"-weight-workers", "2"}, {"-ms-workers", "2"}} {
		err := run(context.Background(), []string{"-config", good, gone[0], gone[1]}, strings.NewReader(""), &out)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s %s: error = %v, want a flag-parse error", gone[0], gone[1], err)
		}
	}
	// Cluster mode without a WAL is refused: the replication stream is
	// the WAL. The context is already done, so a node that wrongly
	// starts serving returns at once instead of hanging the test.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(done, []string{"-config", good, "-listen", "127.0.0.1:0", "-cluster-self", "http://x"}, strings.NewReader(""), &out)
	if err == nil || !strings.Contains(err.Error(), "-wal-dir") {
		t.Errorf("-cluster-self without -wal-dir: error = %v, want one naming -wal-dir", err)
	}
	// Failover acts on the cluster layer and probes named peers, so it
	// is refused without -cluster-self and without -cluster-peers.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-failover"}, "-cluster-self"},
		{[]string{"-listen", "127.0.0.1:0", "-cluster-self", "http://x", "-wal-dir", t.TempDir(), "-failover"}, "-cluster-peers"},
	} {
		err := run(done, append([]string{"-config", good}, tc.args...), strings.NewReader(""), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error = %v, want one naming %s", tc.args, err, tc.want)
		}
	}
}

func TestPipeModeEndToEnd(t *testing.T) {
	path, sc := writeDeployment(t)
	input := measurementsNDJSON(t, sc, 6)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-config", path, "-seed", "2"}, strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	// One snapshot per sensor round plus the final flush.
	if len(lines) != 7 {
		t.Fatalf("snapshot lines = %d, want 7", len(lines))
	}
	var last snapshotJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Ingested != uint64(6*len(sc.Sensors)) {
		t.Errorf("ingested = %d", last.Ingested)
	}
	if len(last.Estimates) == 0 {
		t.Fatal("no estimates in final snapshot")
	}
	found := 0
	for _, src := range sc.Sources {
		for _, e := range last.Estimates {
			dx, dy := e.X-src.Pos.X, e.Y-src.Pos.Y
			if dx*dx+dy*dy < 100 {
				found++
				break
			}
		}
	}
	if found != 2 {
		t.Errorf("daemon found %d/2 sources: %+v", found, last.Estimates)
	}
	if len(last.Tracks) < 2 {
		t.Errorf("confirmed tracks = %d, want ≥ 2", len(last.Tracks))
	}
}

// TestPipeModeSurvivesMessyStream: malformed lines, unknown sensors
// and out-of-range CPM are counted and skipped — field data is messy
// and one corrupt record must not kill the stream. Every snapshot line
// counts exactly the malformed lines that precede it in the input.
func TestPipeModeSurvivesMessyStream(t *testing.T) {
	path, sc := writeDeployment(t)
	rounds := strings.SplitAfter(measurementsNDJSON(t, sc, 2), "\n")
	n := len(sc.Sensors)
	input := "not json\n" +
		`{"sensorId":9999,"cpm":5}` + "\n" + // unknown sensor
		`{"sensorId":0,"cpm":-3}` + "\n" + // negative CPM
		`{"sensorId":0,"cpm":999999999}` + "\n" + // above the physical ceiling
		strings.Join(rounds[:n], "") +
		"not json either\n" + // after the first snapshot line
		strings.Join(rounds[n:], "")
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-config", path}, strings.NewReader(input), &out); err != nil {
		t.Fatalf("messy stream killed the daemon: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var first, last snapshotJSON
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if first.Malformed != 1 {
		t.Errorf("first snapshot malformed = %d, want 1", first.Malformed)
	}
	if last.Malformed != 2 {
		t.Errorf("malformed = %d, want 2", last.Malformed)
	}
	if last.Rejected != 3 {
		t.Errorf("rejected = %d, want 3 (unknown sensor + negative + absurd CPM)", last.Rejected)
	}
	if last.Ingested != uint64(2*n) {
		t.Errorf("ingested = %d, want %d", last.Ingested, 2*n)
	}
}

// lockedBuffer is a bytes.Buffer safe to poll while the daemon
// goroutine writes to it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Len()
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestPipeModeGracefulShutdown: cancelling the context (what SIGTERM
// does via signal.NotifyContext in main) while stdin is still open
// must flush a final snapshot and exit cleanly.
func TestPipeModeGracefulShutdown(t *testing.T) {
	path, sc := writeDeployment(t)
	pr, pw := io.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	out := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-config", path}, pr, out)
	}()
	// Feed two clean rounds, then "send SIGTERM" with the pipe held open.
	if _, err := io.WriteString(pw, measurementsNDJSON(t, sc, 2)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for out.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown not clean: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not exit after context cancellation")
	}
	pw.Close()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last snapshotJSON
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("no final snapshot after shutdown: %v", err)
	}
	if last.Ingested == 0 {
		t.Error("final snapshot empty")
	}
}

func TestPipeModeSkipsUnknownSensors(t *testing.T) {
	path, sc := writeDeployment(t)
	input := `{"sensorId":9999,"cpm":5}` + "\n" + measurementsNDJSON(t, sc, 1)
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-config", path}, strings.NewReader(input), &out); err != nil {
		t.Fatal(err)
	}
	var last snapshotJSON
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", last.Rejected)
	}
}
