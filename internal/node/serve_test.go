package node

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/node/nodetest"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/zone"
)

func newTestServer(t *testing.T) (*httptest.Server, scenario.Scenario) {
	t.Helper()
	sc := scenario.A(50, false)
	return zonedTestServer(t, bootNode(t, Config{Scenario: sc, Seed: 3})), sc
}

func TestHTTPHealthz(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d", resp.StatusCode)
	}
}

func TestHTTPMeasurementsAndSnapshot(t *testing.T) {
	srv, sc := newTestServer(t)
	stream := rng.NewNamed(4, "radlocd-http/measure")

	for step := 0; step < 6; step++ {
		var batch []measurementJSON
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			batch = append(batch, measurementJSON{Meas: fusion.Meas{SensorID: sen.ID, CPM: m.CPM}})
		}
		body, _ := json.Marshal(batch)
		resp, err := http.Post(srv.URL+"/measurements", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ack map[string]int
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ack["accepted"] != len(batch) {
			t.Fatalf("accepted = %d, want %d", ack["accepted"], len(batch))
		}
	}

	resp, err := http.Get(srv.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap snapshotJSON
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Estimates) == 0 {
		t.Fatal("no estimates over HTTP")
	}
	found := 0
	for _, src := range sc.Sources {
		for _, e := range snap.Estimates {
			dx, dy := e.X-src.Pos.X, e.Y-src.Pos.Y
			if dx*dx+dy*dy < 100 {
				found++
				break
			}
		}
	}
	if found != 2 {
		t.Errorf("HTTP pipeline found %d/2 sources", found)
	}
}

func TestHTTPSingleMeasurementAndErrors(t *testing.T) {
	srv, _ := newTestServer(t)

	// A single object (not an array) is accepted.
	resp, err := http.Post(srv.URL+"/measurements", "application/json",
		strings.NewReader(`{"sensorId":0,"cpm":7}`))
	if err != nil {
		t.Fatal(err)
	}
	var ack map[string]int
	_ = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	if ack["accepted"] != 1 {
		t.Errorf("single measurement ack: %v", ack)
	}

	// Garbage body → 400.
	resp, err = http.Post(srv.URL+"/measurements", "application/json", strings.NewReader("zzz"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body status %d", resp.StatusCode)
	}

	// Wrong methods.
	resp, err = http.Get(srv.URL + "/measurements")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /measurements status %d", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/snapshot", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /snapshot status %d", resp.StatusCode)
	}
}

func TestHTTPStats(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/measurements", "application/json",
		strings.NewReader(`{"sensorId":0,"cpm":7}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["ingested"].(float64) != 1 {
		t.Errorf("ingested = %v", stats["ingested"])
	}
	if stats["sensors"].(float64) != 36 {
		t.Errorf("sensors = %v", stats["sensors"])
	}
	if stats["uptimeSeconds"].(float64) < 0 {
		t.Error("negative uptime")
	}
	// Wrong method.
	resp2, err := http.Post(srv.URL+"/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /stats status %d", resp2.StatusCode)
	}
}

func TestHTTPReadyzAndSensors(t *testing.T) {
	srv, sc := newTestServer(t)

	// Before any estimate refresh the daemon is live but not ready.
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz before refresh: status %d, want 503", resp.StatusCode)
	}

	// Post one full sensor round; the engine refreshes and turns ready.
	stream := rng.NewNamed(5, "radlocd-http/ready")
	var batch []measurementJSON
	for _, sen := range sc.Sensors {
		m := sen.Measure(stream, sc.Sources, nil, 0)
		batch = append(batch, measurementJSON{Meas: fusion.Meas{SensorID: sen.ID, CPM: m.CPM}})
	}
	body, _ := json.Marshal(batch)
	resp, err = http.Post(srv.URL+"/measurements", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz after refresh: status %d, want 200", resp.StatusCode)
	}

	// /sensors reports one health record per sensor, sorted by ID.
	resp, err = http.Get(srv.URL + "/sensors")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health []sensorHealthJSON
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if len(health) != len(sc.Sensors) {
		t.Fatalf("sensors = %d records, want %d", len(health), len(sc.Sensors))
	}
	for i, h := range health {
		if h.SensorID != i {
			t.Fatalf("sensors not sorted by ID: %d at index %d", h.SensorID, i)
		}
		if h.Status != "healthy" {
			t.Errorf("sensor %d status %q after clean round", h.SensorID, h.Status)
		}
		if h.Seen != 1 {
			t.Errorf("sensor %d seen = %d, want 1", h.SensorID, h.Seen)
		}
	}

	// POST to /sensors is refused.
	resp, err = http.Post(srv.URL+"/sensors", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /sensors: status %d, want 405", resp.StatusCode)
	}
}

// TestSnapshotServedWhileLoopHeld holds the default zone's event loop
// inside a journal append: GET /snapshot must still answer promptly
// with the state published before that batch, and once the batch is
// acknowledged the next GET must reflect it.
func TestSnapshotServedWhileLoopHeld(t *testing.T) {
	n, park := parkedNode(t)
	mux := n.Handler()
	ingested := func() uint64 {
		rec, code := nodetest.HTTPStatus(mux, http.MethodGet, "http://x/snapshot", "")
		var s snapshotJSON
		if code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &s) != nil {
			return ^uint64(0)
		}
		return s.Ingested
	}

	posted := make(chan int, 1)
	go func() {
		_, code := nodetest.HTTPStatus(mux, http.MethodPost, "http://x/measurements", `{"sensorId":0,"cpm":12}`)
		posted <- code
	}()
	<-park.entered // the loop is parked mid-batch

	read := make(chan uint64, 1)
	go func() { read <- ingested() }()
	select {
	case got := <-read:
		if got != 0 {
			t.Fatalf("GET /snapshot during a held batch saw ingested %d, want the published 0", got)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("GET /snapshot blocked behind the event loop")
	}

	park.unpark()
	if code := <-posted; code != http.StatusOK {
		t.Fatalf("held POST = %d, want 200", code)
	}
	if got := ingested(); got != 1 {
		t.Fatalf("GET /snapshot after the ack saw ingested %d, want 1", got)
	}
}

// TestDurableReadsServedWhileLoopHeld holds a durable zone's event
// loop inside a Do: GET /statez, GET /readyz and the cluster backend's
// Offset read only what the loop published, so each must answer while
// the loop is busy.
func TestDurableReadsServedWhileLoopHeld(t *testing.T) {
	n := testNode(t, t.TempDir())
	zs, z := n.zs, n.zs.defaultZone()
	// Satisfy the refresh gate so /readyz can answer 200.
	if err := z.Do(context.Background(), (*fusion.Engine).Settle); err != nil {
		t.Fatal(err)
	}
	mux := n.Handler()
	b, err := zs.clusterBackend(zone.DefaultZone)
	if err != nil {
		t.Fatal(err)
	}

	held, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	go func() {
		_ = z.Do(context.Background(), func(*fusion.Engine) error {
			close(held)
			<-release
			return nil
		})
	}()
	<-held

	type answer struct {
		statez, readyz int
		enabled        bool
		offset         uint64
	}
	got := make(chan answer, 1)
	go func() {
		var a answer
		rec, code := nodetest.HTTPStatus(mux, http.MethodGet, "http://x/statez", "")
		var st statezJSON
		if code == http.StatusOK && json.Unmarshal(rec.Body.Bytes(), &st) == nil {
			a.enabled = st.Durability.Enabled
		}
		a.statez = code
		_, a.readyz = nodetest.HTTPStatus(mux, http.MethodGet, "http://x/readyz", "")
		a.offset = b.Offset()
		got <- a
	}()
	select {
	case a := <-got:
		if a.statez != http.StatusOK || !a.enabled || a.readyz != http.StatusOK || a.offset != 0 {
			t.Fatalf("reads during a held loop = %+v, want statez 200 with durability, readyz 200, offset 0", a)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a durable zone's read waited for its held event loop")
	}
}
