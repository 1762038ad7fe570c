package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"radloc/internal/clock"
	"radloc/internal/node"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/transport"
	"radloc/internal/zone"
)

func newAgentServer(t *testing.T) (*httptest.Server, *node.Node) {
	t.Helper()
	n, err := node.New(node.Config{Scenario: scenario.A(50, false), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Shutdown() })
	srv := httptest.NewServer(n.Handler())
	t.Cleanup(srv.Close)
	return srv, n
}

// ingestedAfterFlush settles the default zone, releasing its
// reorder-gate tail, and returns how many readings it has applied.
func ingestedAfterFlush(t *testing.T, n *node.Node) uint64 {
	t.Helper()
	if err := n.Settle(context.Background(), zone.DefaultZone); err != nil {
		t.Fatal(err)
	}
	var s nodeSnapshot
	if err := getJSON(n, "/snapshot", &s); err != nil {
		t.Fatal(err)
	}
	return s.Ingested
}

// streamNDJSON renders rounds of sequenced readings for the first few
// sensors of Scenario A, plus one malformed line.
func streamNDJSON(t *testing.T, sensors, rounds int) string {
	t.Helper()
	var b strings.Builder
	for seq := 1; seq <= rounds; seq++ {
		for id := 0; id < sensors; id++ {
			fmt.Fprintf(&b, `{"sensorId":%d,"cpm":20,"step":%d,"seq":%d}`+"\n", id, seq-1, seq)
		}
	}
	b.WriteString("not json\n")
	return b.String()
}

func TestAgentDeliversStream(t *testing.T) {
	srv, n := newAgentServer(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.ndjson")
	const sensors, rounds = 4, 6
	if err := os.WriteFile(path, []byte(streamNDJSON(t, sensors, rounds)), 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	err := agentCmd([]string{
		"-url", srv.URL, "-in", path,
		"-spool", filepath.Join(dir, "spool"), "-batch", "5",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}

	var sum agentSummary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatalf("summary %q: %v", out.String(), err)
	}
	const total = sensors * rounds
	if sum.Delivery.Delivered != total {
		t.Errorf("delivered = %d, want %d", sum.Delivery.Delivered, total)
	}
	if sum.Malformed != 1 {
		t.Errorf("malformed = %d, want 1", sum.Malformed)
	}
	if sum.SpoolPending != 0 {
		t.Errorf("spool pending = %d, want 0", sum.SpoolPending)
	}
	// Agent and server accounting reconcile exactly.
	var sz nodeStatez
	if err := getJSON(n, "/statez", &sz); err != nil {
		t.Fatal(err)
	}
	st := sz.Ingress
	if st.Accepted != sum.Delivery.AcceptedByServer || st.Accepted+st.Duplicates != sum.Delivery.Delivered {
		t.Errorf("server accepted %d dup %d vs agent delivered %d accepted %d",
			st.Accepted, st.Duplicates, sum.Delivery.Delivered, sum.Delivery.AcceptedByServer)
	}
	if got := ingestedAfterFlush(t, n); got != total {
		t.Errorf("engine ingested = %d, want %d", got, total)
	}
}

// TestAgentResumesFromSpool kills delivery mid-stream (server down),
// leaves the readings spooled, then "restarts" the agent against a
// live server and shows the tail is delivered with nothing lost.
func TestAgentResumesFromSpool(t *testing.T) {
	srv, n := newAgentServer(t)
	dir := t.TempDir()
	spoolDir := filepath.Join(dir, "spool")

	// First run: the server is unreachable and attempts are capped, so
	// Send fails; the spool keeps everything.
	sp, err := transport.OpenSpool(spoolDir, transport.SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	down, err := transport.NewClient(transport.Options{
		URL:         "http://127.0.0.1:1", // nothing listens on port 1
		Clock:       clk,
		RNG:         rng.NewNamed(7, "agent-test"),
		BatchSize:   8,
		MaxAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 12
	if _, err := pumpAgent(context.Background(), down, sp, strings.NewReader(streamNDJSON(t, 3, 4))); err != nil {
		t.Fatal(err)
	}
	// MaxAttempts exhausted ⇒ ErrGaveUp per batch, swallowed by the
	// pump; with a spool the readings are NOT acked away.
	if got := sp.Pending(); got != total {
		t.Fatalf("spool pending after dead server = %d, want %d", got, total)
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	// Second run: same spool, live server, no new input.
	var out bytes.Buffer
	if err := agentCmd([]string{
		"-url", srv.URL, "-in", os.DevNull, "-spool", spoolDir, "-batch", "8",
	}, &out); err != nil {
		t.Fatal(err)
	}
	var sum agentSummary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Delivery.Delivered != total || sum.SpoolPending != 0 {
		t.Errorf("resume delivered %d pending %d, want %d and 0", sum.Delivery.Delivered, sum.SpoolPending, total)
	}
	if got := ingestedAfterFlush(t, n); got != total {
		t.Errorf("engine ingested = %d, want %d", got, total)
	}
}
