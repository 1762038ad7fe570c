package node

// Chaos integration test: a spooled transport client delivers a fixed
// measurement stream through a deterministic fault injector — seeded
// request drops, dropped responses (duplicate generator), latency,
// and a hard 10-second partition with a scheduled heal — with an
// agent crash-restart in the middle. The fusion engine must end in a
// state bit-identical to an uninterrupted run: nothing lost, nothing
// double-applied. Everything runs on one shared fake clock, so the
// "10 seconds" of partition cost microseconds of wall time and the
// whole fault pattern replays identically on every run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"radloc/internal/clock"
	"radloc/internal/fusion"
	"radloc/internal/netchaos"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/transport"
)

// localRT serves HTTP requests in-process against a handler — the
// transport stack runs end to end with no sockets, so the only
// nondeterminism is what netchaos injects.
type localRT struct{ h http.Handler }

func (l localRT) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	l.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

const (
	chaosRounds = 6
	chaosBatch  = 7 // does not divide a 36-sensor round: batches straddle rounds
)

// chaosReadings renders the identical workload for every run.
func chaosReadings(sensors int) []transport.Reading {
	stream := rng.NewNamed(5, "chaos/cpm")
	out := make([]transport.Reading, 0, sensors*chaosRounds)
	for round := 1; round <= chaosRounds; round++ {
		for id := 0; id < sensors; id++ {
			out = append(out, transport.Reading{
				SensorID: id, CPM: 12 + stream.IntN(12), Step: round - 1, Seq: uint64(round),
			})
		}
	}
	return out
}

type chaosResult struct {
	snapshot []byte // delivery-normalized snapshot JSON
	health   []byte
	ingested uint64
	ingress  fusion.IngressStats
	client   transport.Stats
	faults   faultCounts
}

// faultCounts is what a netchaos injector did to the requests that
// passed it, read off the errors it returned.
type faultCounts struct {
	Forwarded, Dropped, RespDropped, Partitioned uint64
}

// faultTally wraps a netchaos injector and counts its outcomes.
type faultTally struct {
	rt http.RoundTripper
	mu sync.Mutex
	n  faultCounts
}

// RoundTrip implements http.RoundTripper.
func (f *faultTally) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.rt.RoundTrip(req)
	f.mu.Lock()
	defer f.mu.Unlock()
	switch {
	case err == nil:
		f.n.Forwarded++
	case errors.Is(err, netchaos.ErrDropped):
		f.n.Dropped++
	case errors.Is(err, netchaos.ErrRespDropped):
		f.n.RespDropped++
	case errors.Is(err, netchaos.ErrPartitioned):
		f.n.Partitioned++
	}
	return resp, err
}

// runChaosDelivery pushes the workload through spool → client →
// (optional fault injector) → ingest handler → engine, and returns
// the engine's final state. With restart=true the agent "crashes"
// after delivering one batch it never acknowledged, forcing
// redelivery from the reopened spool.
func runChaosDelivery(t *testing.T, withFaults, restart bool) chaosResult {
	t.Helper()
	sc := scenario.A(50, false)
	n := bootNode(t, Config{Scenario: sc, Seed: 3, NoTracks: true, HTTPQueue: 256})
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	ing := n.ingest

	var rt http.RoundTripper = localRT{ing}
	var faults *faultTally
	if withFaults {
		faults = &faultTally{rt: netchaos.New(rt, netchaos.Config{
			Seed:         99,
			Clock:        clk,
			DropProb:     0.35,
			RespDropProb: 0.15,
			Latency:      40 * time.Millisecond,
			Jitter:       20 * time.Millisecond,
			Partitions:   []netchaos.Window{{From: time.Second, To: 11 * time.Second}},
		})}
		rt = faults
	}
	newClient := func(name string) *transport.Client {
		c, err := transport.NewClient(transport.Options{
			URL:       "http://fusion",
			HTTP:      rt,
			Clock:     clk,
			RNG:       rng.NewNamed(7, name),
			BatchSize: chaosBatch,
			Backoff:   transport.Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second},
			Breaker:   transport.BreakerConfig{FailureThreshold: 3, Cooldown: time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	ctx := context.Background()
	spoolDir := t.TempDir()
	sp, err := transport.OpenSpool(spoolDir, transport.SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	readings := chaosReadings(len(sc.Sensors))
	half := len(readings) / 2
	client := newClient("chaos/agent-1")

	for _, m := range readings[:half] {
		if _, err := sp.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if restart {
		// Deliver one batch but crash before acknowledging it: the
		// server has applied it, the spool still holds it, and the
		// reborn agent will redeliver it — dedup must absorb that.
		batch, _, err := sp.Next(client.BatchSize())
		if err != nil {
			t.Fatal(err)
		}
		if err := client.Send(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if err := sp.Close(); err != nil {
			t.Fatal(err)
		}
		if sp, err = transport.OpenSpool(spoolDir, transport.SpoolOptions{}); err != nil {
			t.Fatal(err)
		}
		client = newClient("chaos/agent-2")
	}
	if _, err := client.Drain(ctx, sp); err != nil {
		t.Fatal(err)
	}
	for _, m := range readings[half:] {
		if _, err := sp.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Drain(ctx, sp); err != nil {
		t.Fatal(err)
	}
	if sp.Pending() != 0 {
		t.Fatalf("spool not drained: %d pending", sp.Pending())
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}

	def := n.zs.defaultZone()
	if err := def.Do(ctx, (*fusion.Engine).Settle); err != nil {
		t.Fatal(err)
	}
	s := def.Snapshot()
	res := chaosResult{ingested: s.Ingested, ingress: ing.Stats(), client: client.Stats()}
	if faults != nil {
		res.faults = faults.n
	}
	// The delivery counters are the one part of the state that SHOULD
	// differ (they count absorbed duplicates); normalize before the
	// bit-identical comparison.
	s.Delivery = fusion.DeliveryStats{}
	if res.snapshot, err = json.Marshal(snapshotToJSON(s)); err != nil {
		t.Fatal(err)
	}
	if res.health, err = json.Marshal(healthToJSON(s.Health)); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestChaosDeliveryBitIdentical(t *testing.T) {
	clean := runChaosDelivery(t, false, false)
	chaos := runChaosDelivery(t, true, true)
	total := uint64(len(scenario.A(50, false).Sensors) * chaosRounds)

	if clean.ingested != total {
		t.Fatalf("clean run ingested %d, want %d", clean.ingested, total)
	}
	if chaos.ingested != total {
		t.Fatalf("chaos run ingested %d, want %d — readings lost or double-applied", chaos.ingested, total)
	}
	if !bytes.Equal(clean.snapshot, chaos.snapshot) {
		t.Errorf("post-heal snapshot differs from uninterrupted run:\nclean: %s\nchaos: %s", clean.snapshot, chaos.snapshot)
	}
	if !bytes.Equal(clean.health, chaos.health) {
		t.Errorf("sensor health differs from uninterrupted run:\nclean: %s\nchaos: %s", clean.health, chaos.health)
	}

	// The injector must actually have bitten: requests dropped, a
	// partition endured, responses lost after the server applied them.
	f := chaos.faults
	if f.Dropped == 0 || f.Partitioned == 0 || f.RespDropped == 0 {
		t.Errorf("fault injector too quiet: %+v", f)
	}
	// Lost responses and the crash-restart manufactured redelivery,
	// and the sequence gate absorbed every duplicate.
	if chaos.ingress.Duplicates == 0 {
		t.Error("expected dedup-suppressed redeliveries, got none")
	}
	// Accounting reconciles: the server accepted each reading exactly
	// once, and the reborn client eventually had every batch acked.
	if chaos.ingress.Accepted != total {
		t.Errorf("server accepted %d, want %d", chaos.ingress.Accepted, total)
	}
	if chaos.client.Delivered != total {
		t.Errorf("client delivered %d, want %d", chaos.client.Delivered, total)
	}
	if chaos.client.Retries == 0 || chaos.client.NetErrors == 0 {
		t.Errorf("chaos client saw no adversity: %+v", chaos.client)
	}
}

// TestChaosDeliveryDeterministic replays the same seeded chaos run
// and requires the identical fault pattern and delivery trace — the
// property that makes the harness CI-safe.
func TestChaosDeliveryDeterministic(t *testing.T) {
	a := runChaosDelivery(t, true, true)
	b := runChaosDelivery(t, true, true)
	if a.faults != b.faults {
		t.Errorf("fault stats diverged:\n%+v\n%+v", a.faults, b.faults)
	}
	if !reflect.DeepEqual(a.client, b.client) {
		t.Errorf("client stats diverged:\n%+v\n%+v", a.client, b.client)
	}
	if !bytes.Equal(a.snapshot, b.snapshot) {
		t.Errorf("snapshots diverged")
	}
}
