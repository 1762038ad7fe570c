package node

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/httpingest"
	"radloc/internal/obs"
	"radloc/internal/scenario"
	"radloc/internal/wal"
	"radloc/internal/zone"
)

// testZoneBuild is the per-zone engine constructor the tests share —
// the same shape run() wires, shrunk for speed.
func testZoneBuild(t *testing.T) func(fusion.Journal, *obs.Registry) (*fusion.Engine, error) {
	t.Helper()
	sc := scenario.A(50, false)
	return func(j fusion.Journal, met *obs.Registry) (*fusion.Engine, error) {
		fcfg := fusion.ScenarioConfig(sc, 5)
		fcfg.Journal, fcfg.Metrics = j, met
		fcfg.Localizer.NumParticles = 400
		return fusion.NewEngine(fcfg)
	}
}

// testZoneSet builds a recovered zoneSet over Scenario A; walRoot ""
// disables durability.
func testZoneSet(t *testing.T, walRoot string, ckptEvery int, idle time.Duration) *zoneSet {
	t.Helper()
	return zoneSetOf(t, zoneSetOptions{
		WalRoot: walRoot, Fsync: wal.FsyncNever, CkptEvery: ckptEvery,
		IdleAfter: idle, Metrics: obs.NewRegistry(), Log: io.Discard,
		Build: testZoneBuild(t),
	})
}

// zoneSetOf builds and recovers a zoneSet from o, closing it when the
// test ends.
func zoneSetOf(t *testing.T, o zoneSetOptions) *zoneSet {
	t.Helper()
	zs, err := newZoneSet(o)
	if err != nil {
		t.Fatal(err)
	}
	if err := zs.recoverZones(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = zs.close() })
	return zs
}

// zoneState exports a live zone's engine state on its event loop.
func zoneState(t *testing.T, z *zone.Zone) fusion.EngineState {
	t.Helper()
	var st fusion.EngineState
	err := z.Do(context.Background(), func(e *fusion.Engine) (err error) {
		st, err = e.ExportState()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// engineOf returns a zone's engine for inspection after the zone has
// closed, when its event loop no longer owns it. Touching the engine
// before then races the loop.
func engineOf(t *testing.T, z *zone.Zone) *fusion.Engine {
	t.Helper()
	var eng *fusion.Engine
	if err := z.Do(context.Background(), func(e *fusion.Engine) error { eng = e; return nil }); err != nil {
		t.Fatal(err)
	}
	return eng
}

// zonedTestMux is the HTTP API over zs with a default admission
// policy, serving zs's registry on /metrics.
func zonedTestMux(zs *zoneSet) http.Handler {
	return newMux(serveConfig{
		Ingest:  httpingest.New(zs.pipe.Submit, httpingest.Options{}),
		Zones:   zs,
		Metrics: zs.reg,
	})
}

func zonedTestServer(t *testing.T, zs *zoneSet) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(zonedTestMux(zs))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// withoutUptime re-encodes a /stats body without its uptimeSeconds.
func withoutUptime(t *testing.T, body string) string {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "uptimeSeconds")
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestZoneRoutesEndToEnd(t *testing.T) {
	zs := testZoneSet(t, "", 0, 0)
	srv := zonedTestServer(t, zs)

	if resp := postJSON(t, srv.URL+"/zones/east/measurements",
		`[{"sensorId":0,"cpm":9},{"sensorId":1,"cpm":7}]`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post to zone east = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/measurements", `{"sensorId":0,"cpm":9}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("post to legacy route = %d", resp.StatusCode)
	}

	code, body := getBody(t, srv.URL+"/zones")
	if code != http.StatusOK {
		t.Fatalf("GET /zones = %d", code)
	}
	var zl struct {
		Zones []string `json:"zones"`
	}
	if err := json.Unmarshal([]byte(body), &zl); err != nil {
		t.Fatal(err)
	}
	if want := []string{zone.DefaultZone, "east"}; len(zl.Zones) != 2 || zl.Zones[0] != want[0] || zl.Zones[1] != want[1] {
		t.Fatalf("zones = %v, want %v", zl.Zones, want)
	}

	code, body = getBody(t, srv.URL+"/zones/east/snapshot")
	if code != http.StatusOK {
		t.Fatalf("GET /zones/east/snapshot = %d", code)
	}
	var snap snapshotJSON
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Ingested != 2 {
		t.Fatalf("east ingested = %d, want 2", snap.Ingested)
	}

	// The unnamed read routes alias the default zone byte-for-byte;
	// /stats differs only in its uptime, which moves between calls.
	for _, ep := range []string{"snapshot", "sensors", "stats"} {
		_, legacy := getBody(t, srv.URL+"/"+ep)
		_, aliased := getBody(t, srv.URL+"/zones/default/"+ep)
		if ep == "stats" {
			legacy, aliased = withoutUptime(t, legacy), withoutUptime(t, aliased)
		}
		if legacy != aliased {
			t.Fatalf("/%s and /zones/default/%s disagree:\n%s\n%s", ep, ep, legacy, aliased)
		}
	}

	// Read routes never conjure zones: absent is 404, ill-formed is 400.
	if code, _ := getBody(t, srv.URL+"/zones/west/snapshot"); code != http.StatusNotFound {
		t.Fatalf("GET absent zone = %d, want 404", code)
	}
	if _, ok := zs.manager.Lookup("west"); ok {
		t.Fatal("read route conjured zone west")
	}
	if code, _ := getBody(t, srv.URL+"/zones/NOPE/snapshot"); code != http.StatusBadRequest {
		t.Fatalf("GET bad zone name = %d, want 400", code)
	}

	for _, ep := range []string{"stats", "sensors", "statez"} {
		if code, _ := getBody(t, srv.URL+"/zones/east/"+ep); code != http.StatusOK {
			t.Fatalf("GET /zones/east/%s = %d", ep, code)
		}
	}
}

func TestMultiZoneRecovery(t *testing.T) {
	dir := t.TempDir()
	zs := testZoneSet(t, dir, 5, 0)
	sc := scenario.A(50, false)
	lines := seqMeasurementsNDJSON(t, sc, 3)

	zones := []string{zone.DefaultZone, "east", "west"}
	engines := map[string]*fusion.Engine{}
	for zi, name := range zones {
		// Distinct streams per zone: offset which lines each zone gets.
		for i, line := range lines {
			if i%len(zones) != zi {
				continue
			}
			var m measurementJSON
			if err := json.Unmarshal([]byte(line), &m); err != nil {
				t.Fatal(err)
			}
			if _, err := zs.manager.Submit(context.Background(), name, []fusion.Meas{m.Meas}); err != nil {
				t.Fatalf("submit to %s: %v", name, err)
			}
		}
		z, _ := zs.manager.Lookup(name)
		engines[name] = engineOf(t, z)
	}
	if err := zs.close(); err != nil {
		t.Fatal(err)
	}
	// After close, each engine holds its flushed final state — what the
	// final checkpoint recorded and reboot must reproduce.
	want := map[string][]byte{}
	for name, e := range engines {
		st, err := e.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		blob, err := fusion.EncodeState(st)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = blob
	}

	// The on-disk layout: default zone at the root, named zones under
	// zones/<name>.
	for _, name := range []string{"east", "west"} {
		if _, err := os.Stat(filepath.Join(dir, "zones", name)); err != nil {
			t.Fatalf("zone %s WAL dir: %v", name, err)
		}
	}

	// Reboot: every zone on disk comes back with identical state.
	zs2 := testZoneSet(t, dir, 5, 0)
	names := zs2.manager.Names()
	if len(names) != 3 || names[0] != "default" || names[1] != "east" || names[2] != "west" {
		t.Fatalf("recovered zones = %v, want [default east west]", names)
	}
	for _, name := range zones {
		z, _ := zs2.manager.Lookup(name)
		got, err := fusion.EncodeState(zoneState(t, z))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want[name]) {
			t.Errorf("zone %s: recovered state differs from pre-shutdown state", name)
		}
	}
}

func TestPipeZoneRouting(t *testing.T) {
	zs := testZoneSet(t, "", 0, 0)
	input := strings.Join([]string{
		`{"sensorId":0,"cpm":9}`,
		`{"sensorId":1,"cpm":7}`,
		`{"sensorId":0,"cpm":9,"zone":"east"}`,
		`{"sensorId":1,"cpm":7,"zone":"east"}`,
		`{"sensorId":0,"cpm":9,"zone":"Bad Zone!"}`,
		`this is not json`,
	}, "\n") + "\n"

	var out strings.Builder
	if err := servePipe(context.Background(), zs, strings.NewReader(input), &out, 2); err != nil {
		t.Fatal(err)
	}
	snap := lastSnapshotLine(t, out.String())
	if snap.Ingested != 2 {
		t.Fatalf("default zone ingested = %d, want 2 (zone-stamped readings must not leak)", snap.Ingested)
	}
	if snap.Malformed != 1 {
		t.Fatalf("malformed = %d, want 1", snap.Malformed)
	}
	if snap.ZoneRefused != 1 {
		t.Fatalf("zoneRefused = %d, want 1", snap.ZoneRefused)
	}
	east, ok := zs.manager.Lookup("east")
	if !ok {
		t.Fatal("zone east was not created by the pipe stream")
	}
	if got := east.Snapshot().Ingested; got != 2 {
		t.Fatalf("east ingested = %d, want 2", got)
	}
}

// TestPipeDefaultZoneBitIdentical proves the sharded pipe path is a
// refactor, not a behavior change: a legacy (unstamped) stream driven
// through servePipe leaves the default zone in byte-identical state —
// RNG position included — to the pre-sharding loop (IngestSeq per
// line, FlushPending + Refresh at EOF) over the same engine config.
// The 150-round stream (5,400 readings) outruns the engine, so a pipe
// path that dropped or reordered readings under load fails it.
func TestPipeDefaultZoneBitIdentical(t *testing.T) {
	sc := scenario.A(50, false)
	for _, steps := range []int{4, 150} {
		t.Run(fmt.Sprintf("steps=%d", steps), func(t *testing.T) {
			build := testZoneBuild(t)
			lines := seqMeasurementsNDJSON(t, sc, steps)
			input := strings.Join(lines, "\n") + "\n"

			ref, err := build(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range lines {
				var m measurementJSON
				if err := json.Unmarshal([]byte(line), &m); err != nil {
					t.Fatal(err)
				}
				_, _ = ref.IngestSeq(m.Meas)
			}
			_, _ = ref.FlushPending()
			ref.Refresh()
			wantState, err := ref.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			want, err := fusion.EncodeState(wantState)
			if err != nil {
				t.Fatal(err)
			}

			zs := testZoneSet(t, "", 0, 0)
			var out strings.Builder
			if err := servePipe(context.Background(), zs, strings.NewReader(input), &out, len(sc.Sensors)); err != nil {
				t.Fatal(err)
			}
			got, err := fusion.EncodeState(zoneState(t, zs.defaultZone()))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("default zone state after servePipe differs from the pre-sharding ingest loop (ingested %d of %d readings)",
					zs.defaultZone().Snapshot().Ingested, len(lines))
			}
		})
	}
}

// TestZoneChurnUnderConcurrentTraffic hammers the HTTP surface while
// an evictor sweeps zones out from under it: writers must never see an
// error (eviction races resolve by recreation, with state restored
// from each zone's final checkpoint) and readers must only ever see a
// clean 200 or 404. Run with -race.
func TestZoneChurnUnderConcurrentTraffic(t *testing.T) {
	zs := testZoneSet(t, t.TempDir(), 5, 10*time.Millisecond)
	srv := zonedTestServer(t, zs)
	zones := []string{"z0", "z1", "z2", "z3"}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := zones[(w+i)%len(zones)]
				resp := postJSON(t, srv.URL+"/zones/"+name+"/measurements",
					fmt.Sprintf(`{"sensorId":%d,"cpm":9}`, i%4))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("post to %s = %d", name, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := zones[i%len(zones)]
			if code, _ := getBody(t, srv.URL+"/zones/"+name+"/snapshot"); code != http.StatusOK && code != http.StatusNotFound {
				t.Errorf("GET %s snapshot = %d", name, code)
				return
			}
		}
	}()
	deadline := time.After(300 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			// Force-evict everything idle at an hour in the future: every
			// named zone qualifies the moment its mailbox drains.
			zs.manager.SweepIdle(time.Now().Add(time.Hour))
		}
	}
	close(stop)
	wg.Wait()

	// The surface is still coherent: one more write and read per zone.
	for _, name := range zones {
		if resp := postJSON(t, srv.URL+"/zones/"+name+"/measurements", `{"sensorId":0,"cpm":9}`); resp.StatusCode != http.StatusOK {
			t.Fatalf("post-churn write to %s = %d", name, resp.StatusCode)
		}
		if code, _ := getBody(t, srv.URL+"/zones/"+name+"/snapshot"); code != http.StatusOK {
			t.Fatalf("post-churn read of %s = %d", name, code)
		}
	}
}
