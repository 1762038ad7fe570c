package httpingest

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"radloc/internal/clock"
	"radloc/internal/fusion"
	"radloc/internal/scenario"
	"radloc/internal/zone"
)

func testEngine(t testing.TB, seed uint64) *fusion.Engine {
	t.Helper()
	sc := scenario.A(50, false)
	cfg := fusion.ScenarioConfig(sc, seed)
	cfg.Localizer.NumParticles = 300
	e, err := fusion.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func testManager(t testing.TB, opts zone.Options) *zone.Manager {
	t.Helper()
	if opts.Factory == nil {
		opts.Factory = func(name string) (zone.Resources, error) {
			return zone.Resources{Engine: testEngine(t, 7)}, nil
		}
	}
	m, err := zone.NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

// zonedMux mounts the handler the way the daemon does: the legacy
// route plus the zone-scoped one.
func zonedMux(h *Handler) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/measurements", h)
	mux.Handle("/zones/{zone}/measurements", h)
	return mux
}

func post(t *testing.T, mux http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	return w
}

func decodeCounts(t *testing.T, w *httptest.ResponseRecorder) map[string]int {
	t.Helper()
	var out map[string]int
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("bad response body %q: %v", w.Body.String(), err)
	}
	return out
}

func TestZoneRouteLandsInNamedZone(t *testing.T) {
	m := testManager(t, zone.Options{})
	mux := zonedMux(New(m.Submit, Options{}))

	w := post(t, mux, "/zones/east/measurements", `[{"sensorId":0,"cpm":9},{"sensorId":1,"cpm":7}]`)
	if w.Code != http.StatusOK {
		t.Fatalf("zone route = %d: %s", w.Code, w.Body.String())
	}
	if got := decodeCounts(t, w)["accepted"]; got != 2 {
		t.Fatalf("accepted = %d, want 2", got)
	}
	if _, ok := m.Lookup("east"); !ok {
		t.Fatal("zone east was not created")
	}
	if _, ok := m.Lookup(zone.DefaultZone); ok {
		t.Fatal("default zone conjured by a named-zone post")
	}

	// The legacy route is the default zone.
	w = post(t, mux, "/measurements", `{"sensorId":0,"cpm":9}`)
	if w.Code != http.StatusOK {
		t.Fatalf("legacy route = %d: %s", w.Code, w.Body.String())
	}
	if _, ok := m.Lookup(zone.DefaultZone); !ok {
		t.Fatal("legacy route did not land in the default zone")
	}
	if east, _ := m.Lookup("east"); east.Snapshot().Ingested != 2 {
		t.Fatal("legacy post leaked into zone east")
	}
}

func TestZoneMismatchRefused(t *testing.T) {
	m := testManager(t, zone.Options{})
	mux := zonedMux(New(m.Submit, Options{}))
	w := post(t, mux, "/zones/east/measurements",
		`[{"sensorId":0,"cpm":9,"seq":1},{"sensorId":1,"cpm":7,"seq":1,"zone":"west"}]`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("mismatched zone = %d, want 400", w.Code)
	}
	// The whole batch was refused, including the well-stamped reading.
	if z, ok := m.Lookup("east"); ok && z.Snapshot().Ingested != 0 {
		t.Fatal("part of a refused batch was applied")
	}
	// A matching stamp is fine.
	w = post(t, mux, "/zones/east/measurements", `{"sensorId":0,"cpm":9,"seq":1,"zone":"east"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("matching zone stamp = %d: %s", w.Code, w.Body.String())
	}
}

func TestBadZoneName(t *testing.T) {
	m := testManager(t, zone.Options{})
	mux := zonedMux(New(m.Submit, Options{}))
	w := post(t, mux, "/zones/NOPE/measurements", `{"sensorId":0,"cpm":9}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad zone name = %d, want 400", w.Code)
	}
}

func TestZoneLimit503(t *testing.T) {
	m := testManager(t, zone.Options{MaxZones: 1})
	mux := zonedMux(New(m.Submit, Options{}))
	if w := post(t, mux, "/zones/a/measurements", `{"sensorId":0,"cpm":9}`); w.Code != http.StatusOK {
		t.Fatalf("first zone = %d", w.Code)
	}
	if w := post(t, mux, "/zones/b/measurements", `{"sensorId":0,"cpm":9}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("zone over limit = %d, want 503", w.Code)
	}
}

func TestPerZoneTokenBuckets(t *testing.T) {
	m := testManager(t, zone.Options{})
	fc := clock.NewFake(time.Unix(0, 0))
	mux := zonedMux(New(m.Submit, Options{RatePerSec: 0.001, Burst: 2, Clock: fc}))

	body := `{"sensorId":0,"cpm":9}`
	for i := 0; i < 2; i++ {
		if w := post(t, mux, "/zones/east/measurements", body); w.Code != http.StatusOK {
			t.Fatalf("east burst reading %d = %d", i, w.Code)
		}
	}
	if w := post(t, mux, "/zones/east/measurements", body); w.Code != http.StatusTooManyRequests {
		t.Fatalf("east over burst = %d, want 429", w.Code)
	}
	// The same sensor ID in another zone has its own bucket.
	if w := post(t, mux, "/zones/west/measurements", body); w.Code != http.StatusOK {
		t.Fatalf("west first reading = %d, want 200 (buckets must be per-zone)", w.Code)
	}
}

func TestBucketLRUCap(t *testing.T) {
	m := testManager(t, zone.Options{})
	fc := clock.NewFake(time.Unix(0, 0))
	h := New(m.Submit, Options{RatePerSec: 0.001, Burst: 1, MaxBuckets: 4, Clock: fc})
	mux := zonedMux(h)

	// Sensor 0 burns its single token.
	if w := post(t, mux, "/zones/east/measurements", `{"sensorId":0,"cpm":9,"seq":1}`); w.Code != http.StatusOK {
		t.Fatalf("first reading = %d", w.Code)
	}
	if w := post(t, mux, "/zones/east/measurements", `{"sensorId":0,"cpm":9,"seq":1}`); w.Code != http.StatusTooManyRequests {
		t.Fatalf("second reading = %d, want 429", w.Code)
	}
	// Four other sensors push sensor 0's bucket out of the LRU cap...
	for id := 1; id <= 4; id++ {
		post(t, mux, "/zones/east/measurements", fmt.Sprintf(`{"sensorId":%d,"cpm":9,"seq":1}`, id))
	}
	h.mu.Lock()
	n := len(h.buckets)
	h.mu.Unlock()
	if n != 4 {
		t.Fatalf("live buckets = %d, want the cap 4", n)
	}
	// ...so it re-admits with a fresh bucket (the documented trade:
	// bounded memory over perfect fairness for evicted IDs).
	if w := post(t, mux, "/zones/east/measurements", `{"sensorId":0,"cpm":9,"seq":2}`); w.Code != http.StatusOK {
		t.Fatalf("evicted bucket did not reset: %d", w.Code)
	}
}

func TestDuplicateRefundPerZone(t *testing.T) {
	m := testManager(t, zone.Options{})
	fc := clock.NewFake(time.Unix(0, 0))
	mux := zonedMux(New(m.Submit, Options{RatePerSec: 0.001, Burst: 2, Clock: fc}))
	// Two identical sequenced readings: the duplicate refunds its
	// token, so a third (fresh) reading still fits the burst of 2.
	if w := post(t, mux, "/zones/east/measurements", `{"sensorId":0,"cpm":9,"seq":1}`); w.Code != http.StatusOK {
		t.Fatalf("first = %d", w.Code)
	}
	w := post(t, mux, "/zones/east/measurements", `{"sensorId":0,"cpm":9,"seq":1}`)
	if w.Code != http.StatusOK || decodeCounts(t, w)["duplicate"] != 1 {
		t.Fatalf("redelivery = %d %s, want 200 with one duplicate", w.Code, w.Body.String())
	}
	if w := post(t, mux, "/zones/east/measurements", `{"sensorId":0,"cpm":9,"seq":2}`); w.Code != http.StatusOK {
		t.Fatalf("post-refund reading = %d, want 200", w.Code)
	}
}
