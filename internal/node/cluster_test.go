package node

// Cluster failover integration tests: two full daemon stacks (zone
// manager, per-zone WAL, fusion engines, /cluster endpoints, write
// fencing) wired over an in-process network. The headline criterion
// mirrors the single-node durability one: kill the primary without
// any shutdown flush, promote the standby, redeliver the stream
// at-least-once, and the promoted node's state must be bit-identical
// to a never-clustered, never-interrupted run.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"radloc/internal/cluster"
	"radloc/internal/fusion"
	"radloc/internal/node/nodetest"
	"radloc/internal/obs"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/wal"
	"radloc/internal/zone"
)

// clusterTestNode is one daemon's full stack — a real node.Node plus
// the white-box aliases the assertions reach into. node is nil for the
// standalone (non-clustered) reference deployment.
type clusterTestNode struct {
	n    *Node
	zs   *zoneSet
	node *cluster.Node
	mux  http.Handler
	reg  *obs.Registry
	link *nodetest.Link
}

// newClusterTestNode assembles one daemon through the production path
// — node.New on a Config — over the in-process fabric. Every node
// builds identical engines (same scenario, same seed), so state
// comparisons across nodes are meaningful.
func newClusterTestNode(t *testing.T, fab *nodetest.Fabric, host string, routes *cluster.Routes, mods ...func(*Config)) *clusterTestNode {
	t.Helper()
	return newClusterTestNodeAt(t, fab, host, routes, t.TempDir(), mods...)
}

// newClusterTestNodeAt is newClusterTestNode with the WAL root
// exposed, so a killed node can be resurrected over its own surviving
// state — the divergence-repair scenario.
func newClusterTestNodeAt(t *testing.T, fab *nodetest.Fabric, host string, routes *cluster.Routes, walRoot string, mods ...func(*Config)) *clusterTestNode {
	t.Helper()
	reg := obs.NewRegistry()
	link := fab.Link()
	cfg := Config{
		Scenario: scenario.A(50, false),
		Seed:     3,
		// No tracking: the cluster assertions compare estimates and
		// health, and the reference node must match shape-for-shape.
		NoTracks: true,
		// A one-round reorder window keeps the WAL advancing as each
		// round lands, so replication lag and retention are exercised
		// with a 6-round stream (the default window of 4 would hold
		// most of it in the gate, journaling almost nothing).
		ReorderWindow:   1,
		WALDir:          walRoot,
		Fsync:           wal.FsyncNever,
		CheckpointEvery: 50,
		WALSegment:      16,
		MaxZones:        8,
		HTTPQueue:       256,
		HTTP:            link,
		Metrics:         reg,
	}
	if routes != nil {
		cfg.ClusterSelf = "http://" + host
		cfg.SeedRoutes = routes
		cfg.ReplInterval = time.Millisecond
	}
	for _, mod := range mods {
		mod(&cfg)
	}
	nd, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nd.Shutdown() })
	n := &clusterTestNode{n: nd, zs: nd.zs, node: nd.clu, mux: nd.Handler(), reg: reg, link: link}
	fab.Add(host, n.mux)
	return n
}

// backend resolves the node's default-zone cluster backend.
func (n *clusterTestNode) backend(t *testing.T, zone string) cluster.Backend {
	t.Helper()
	b, err := n.zs.clusterBackend(zone)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// status fetches one zone's replication status row.
func (n *clusterTestNode) status(zone string) (cluster.ZoneStatus, bool) {
	for _, st := range n.node.Status() {
		if st.Zone == zone {
			return st, true
		}
	}
	return cluster.ZoneStatus{}, false
}

// normalizedState releases the zone's reorder-gate tail, refreshes,
// and renders the snapshot and health with the delivery counters
// zeroed — the bit-identical comparison form the chaos tests use.
func normalizedState(t *testing.T, z *zone.Zone) ([]byte, []byte) {
	t.Helper()
	if err := z.Do(context.Background(), (*fusion.Engine).Settle); err != nil {
		t.Fatal(err)
	}
	return normalizedJSON(t, z.Snapshot())
}

// normalizedEngineState is normalizedState for an engine no zone owns.
func normalizedEngineState(t *testing.T, e *fusion.Engine) ([]byte, []byte) {
	t.Helper()
	if err := e.Settle(); err != nil {
		t.Fatal(err)
	}
	return normalizedJSON(t, e.Snapshot())
}

// normalizedJSON renders a snapshot and its health with the delivery
// counters zeroed.
func normalizedJSON(t *testing.T, s fusion.Snapshot) ([]byte, []byte) {
	t.Helper()
	s.Delivery = fusion.DeliveryStats{}
	snap, err := json.Marshal(snapshotToJSON(s))
	if err != nil {
		t.Fatal(err)
	}
	health, err := json.Marshal(healthToJSON(s.Health))
	if err != nil {
		t.Fatal(err)
	}
	return snap, health
}

// TestClusterFailoverBitIdentical is the headline cluster criterion:
// half the stream lands on the primary, the primary is killed with no
// shutdown flush of any kind, the standby is promoted, and the whole
// stream is redelivered to it at-least-once. The promoted node must
// end bit-identical to a standalone daemon that consumed the stream
// uninterrupted — replication plus the dedup gate lose nothing and
// double-apply nothing across a failover.
func TestClusterFailoverBitIdentical(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	a := newClusterTestNode(t, fab, "a", &routes)
	b := newClusterTestNode(t, fab, "b", &routes)
	clean := newClusterTestNode(t, fab, "c", nil)

	sensors := len(scenario.A(50, false).Sensors)
	readings := chaosReadings(sensors)
	half := (len(readings) / (2 * sensors)) * sensors // whole-round boundary

	// Reference: the same stream, one node, no interruptions.
	nodetest.SendRounds(t, nodetest.NewClient(t, fab, "http://c", "clean", ""), readings, sensors)
	wantSnap, wantHealth := normalizedState(t, clean.zs.defaultZone())

	// Primary takes the first half; the standby replicates it.
	nodetest.SendRounds(t, nodetest.NewClient(t, fab, "http://a", "pre-kill", ""), readings[:half], sensors)
	aBack := a.backend(t, "default")
	nodetest.WaitUntil(t, "standby catch-up before the kill", func() bool {
		st, ok := b.status("default")
		return ok && st.CaughtUp && b.backend(t, "default").Offset() == aBack.Offset()
	})

	// Kill the primary: sever it and abandon its zone set — no final
	// checkpoint, no gate flush, no WAL sync. Observationally SIGKILL.
	b.link.Cut("a", true)

	epoch, err := b.node.Promote("default")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promote epoch = %d, want 2", epoch)
	}
	if _, code := nodetest.HTTPStatus(b.mux, http.MethodGet, "http://b/readyz", ""); code != http.StatusOK {
		t.Fatalf("promoted node /readyz = %d, want 200", code)
	}

	// At-least-once redelivery of the whole stream to the new primary:
	// the sequence gate absorbs everything replication already applied.
	nodetest.SendRounds(t, nodetest.NewClient(t, fab, "http://b", "post-kill", ""), readings, sensors)

	gotSnap, gotHealth := normalizedState(t, b.zs.defaultZone())
	if !bytes.Equal(wantSnap, gotSnap) {
		t.Errorf("promoted standby diverged from clean run:\nclean:    %s\npromoted: %s", wantSnap, gotSnap)
	}
	if !bytes.Equal(wantHealth, gotHealth) {
		t.Errorf("promoted standby health diverged:\nclean:    %s\npromoted: %s", wantHealth, gotHealth)
	}

	// The dead primary stays fenced: a pull carrying the new epoch gets
	// 409 and forces it to step down, even if it limps back.
	b.link.Cut("a", false)
	rec, code := nodetest.HTTPStatus(a.mux, http.MethodGet, "http://a/cluster/wal/default?from=0&epoch=2", "")
	if code != http.StatusConflict {
		t.Fatalf("stale primary served a newer-epoch pull: HTTP %d: %s", code, rec.Body.String())
	}
	if _, code := nodetest.HTTPStatus(a.mux, http.MethodPost, "http://a/measurements", `{"sensorId":0,"cpm":12}`); code != http.StatusServiceUnavailable {
		t.Fatalf("fenced old primary accepted a write: HTTP %d", code)
	}
}

// postRounds posts rounds [from, to) of seq-0 readings straight to a
// node's mux. Seq-0 traffic keeps the delivery counters zero on both
// primary and standby — the standby replays the records through the
// very same apply path — which is what makes their snapshots
// byte-comparable.
func postRounds(t *testing.T, mux http.Handler, host string, sc scenario.Scenario, from, to int) {
	t.Helper()
	stream := rng.NewNamed(uint64(11+from), "cluster/measure")
	for step := from; step < to; step++ {
		var batch []measurementJSON
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			batch = append(batch, measurementJSON{Meas: fusion.Meas{SensorID: sen.ID, CPM: m.CPM, Step: step}})
		}
		body, _ := json.Marshal(batch)
		rec, code := nodetest.HTTPStatus(mux, http.MethodPost, host+"/measurements", string(body))
		if code != http.StatusOK {
			t.Fatalf("round %d refused: HTTP %d: %s", step, code, rec.Body.String())
		}
	}
}

// TestClusterStandbySnapshotByteIdentical: a caught-up standby serves
// a /snapshot body byte-identical to its primary's — same estimates,
// same refresh count, same health, same journal offset.
func TestClusterStandbySnapshotByteIdentical(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	a := newClusterTestNode(t, fab, "a", &routes)
	b := newClusterTestNode(t, fab, "b", &routes)

	postRounds(t, a.mux, "http://a", scenario.A(50, false), 0, 4)
	aBack := a.backend(t, "default")
	// The standby's WAL head reaches the primary's while the last
	// replicated batch is still being applied; its snapshot is
	// published once that batch is done, so wait for that too.
	nodetest.WaitUntil(t, "standby catch-up", func() bool {
		st, ok := b.status("default")
		head := aBack.Offset()
		return ok && st.CaughtUp && b.backend(t, "default").Offset() == head &&
			b.zs.defaultZone().Snapshot().Journaled == head
	})

	recA, codeA := nodetest.HTTPStatus(a.mux, http.MethodGet, "http://a/snapshot", "")
	recB, codeB := nodetest.HTTPStatus(b.mux, http.MethodGet, "http://b/snapshot", "")
	if codeA != http.StatusOK || codeB != http.StatusOK {
		t.Fatalf("snapshot status: primary %d standby %d", codeA, codeB)
	}
	if bodyA, bodyB := recA.Body.String(), recB.Body.String(); bodyA != bodyB {
		t.Fatalf("caught-up standby snapshot diverged from primary:\nprimary: %s\nstandby: %s", bodyA, bodyB)
	}
}

// TestClusterStandbyAdoptsRefreshes: a standby applies each refresh
// the primary journaled by adopting the shipped estimates, never
// searching, and stays byte-equal to its primary: the same /snapshot
// body and the same engine state in its checkpoint encoding. Its own
// WAL carries the refresh entries too, so it would boot without
// searching as well.
func TestClusterStandbyAdoptsRefreshes(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	a := newClusterTestNode(t, fab, "a", &routes)
	b := newClusterTestNode(t, fab, "b", &routes)

	postRounds(t, a.mux, "http://a", scenario.A(50, false), 0, 5)
	aBack := a.backend(t, "default")
	nodetest.WaitUntil(t, "standby catch-up", func() bool {
		st, ok := b.status("default")
		head := aBack.Offset()
		return ok && st.CaughtUp && b.backend(t, "default").Offset() == head &&
			b.zs.defaultZone().Snapshot().Journaled == head
	})

	recA, _ := nodetest.HTTPStatus(a.mux, http.MethodGet, "http://a/snapshot", "")
	recB, _ := nodetest.HTTPStatus(b.mux, http.MethodGet, "http://b/snapshot", "")
	if bodyA, bodyB := recA.Body.String(), recB.Body.String(); bodyA != bodyB {
		t.Fatalf("standby snapshot diverged from primary:\nprimary: %s\nstandby: %s", bodyA, bodyB)
	}
	engineState := func(n *clusterTestNode) []byte {
		var blob []byte
		if err := n.zs.defaultZone().Do(context.Background(), func(e *fusion.Engine) error {
			blob = encodedState(t, e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return blob
	}
	if !bytes.Equal(engineState(a), engineState(b)) {
		t.Fatal("standby engine state differs from the primary's")
	}

	refreshes := a.zs.defaultZone().Snapshot().Refreshes
	var sz statezJSON
	rec, _ := nodetest.HTTPStatus(b.mux, http.MethodGet, "http://b/statez", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &sz); err != nil {
		t.Fatal(err)
	}
	if r := sz.Durability.Recovery; refreshes != 5 || r.RefreshesAdopted != refreshes || r.RefreshesSearched != 0 {
		t.Fatalf("standby recovery %+v after the primary's %d refreshes; want all adopted, none searched", r, refreshes)
	}
	// The segments both logs still hold (each prunes on its own
	// checkpoint cadence) are byte-equal, refresh entries included.
	segsA, _ := filepath.Glob(filepath.Join(zoneDurable(a.zs.defaultZone()).dir, "wal-*.ndjson"))
	common, entries := 0, 0
	for _, segA := range segsA {
		blobB, err := os.ReadFile(filepath.Join(zoneDurable(b.zs.defaultZone()).dir, filepath.Base(segA)))
		if err != nil {
			continue
		}
		blobA, err := os.ReadFile(segA)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(blobA, blobB) {
			t.Fatalf("segment %s differs between primary and standby", filepath.Base(segA))
		}
		common++
		entries += bytes.Count(blobB, []byte(`,"refresh":`))
	}
	if common == 0 || entries == 0 {
		t.Fatalf("%d segments in common holding %d refresh entries: nothing compared", common, entries)
	}
}

// TestClusterStreamIsTheWAL: the body a primary serves between the
// hello and end frames of a pull is its own WAL's bytes for the pulled
// range, refresh entries included, so the standby reads the segment
// grammar itself and no second codec sits on the wire.
func TestClusterStreamIsTheWAL(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{"default": {Primary: "http://a"}}}
	a := newClusterTestNode(t, fab, "a", &routes)
	postRounds(t, a.mux, "http://a", scenario.A(50, false), 0, 5)

	// The primary's segment bytes by offset: a reading's line, then
	// its refresh entry's when it has one.
	segs, err := filepath.Glob(filepath.Join(zoneDurable(a.zs.defaultZone()).dir, "wal-*.ndjson"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("primary segments: %v, %v", segs, err)
	}
	entries := map[uint64][]byte{}
	var oldest uint64
	for i, seg := range segs {
		var next uint64
		if _, err := fmt.Sscanf(filepath.Base(seg), "wal-%016x.ndjson", &next); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			oldest = next
		}
		f, err := os.Open(seg)
		if err != nil {
			t.Fatal(err)
		}
		sc := wal.NewScanner(f)
		for sc.Scan() {
			if _, ok := sc.Reading(); ok {
				next++
			} else if _, ok := sc.Refresh(); !ok {
				t.Fatalf("segment %s holds a line that is no entry: %q", seg, sc.Bytes())
			}
			entries[next-1] = append(entries[next-1], sc.Bytes()...)
		}
		f.Close()
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
	}

	st, _ := a.status("default")
	from, head := oldest+30, a.backend(t, "default").Offset()
	n := min(head-from, 100)
	var want []byte
	for off := from; off < from+n; off++ {
		want = append(want, entries[off]...)
	}
	if bytes.Count(want, []byte(`,"refresh":`)) == 0 {
		t.Fatalf("offsets [%d, %d) hold no refresh entry: nothing compared", from, from+n)
	}
	rec, code := nodetest.HTTPStatus(a.mux, http.MethodGet, fmt.Sprintf("http://a/cluster/wal/default?from=%d&epoch=%d&max=%d", from, st.Epoch, n), "")
	if code != http.StatusOK {
		t.Fatalf("pull: HTTP %d: %s", code, rec.Body.String())
	}
	helloLine, rest, _ := bytes.Cut(rec.Body.Bytes(), []byte("\n"))
	hello, err := cluster.DecodeFrame(helloLine)
	if err != nil || hello.Type != cluster.FrameHello || hello.Off != from {
		t.Fatalf("first line %q: %+v, %v; want a hello at offset %d", helloLine, hello, err, from)
	}
	body, found := bytes.CutSuffix(rest, []byte(`{"type":"end","epoch":`+fmt.Sprint(st.Epoch)+`,"head":`+fmt.Sprint(head)+"}\n"))
	if !found {
		t.Fatalf("stream does not close with the end frame: %q", rest[len(rest)-min(len(rest), 200):])
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("stream body differs from the primary's segment bytes for [%d, %d):\n got %q\nwant %q", from, from+n, body, want)
	}
}

// TestClusterStandbyRedirectsWrites drives a full loop through the
// routing layer: an agent aimed at the standby is 307'd to the
// primary, follows the redirect through its normal retry machinery,
// and the applied records replicate back to the very standby that
// bounced them.
func TestClusterStandbyRedirectsWrites(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	a := newClusterTestNode(t, fab, "a", &routes)
	b := newClusterTestNode(t, fab, "b", &routes)

	// Raw request: the standby answers 307 with the primary's URL.
	rec, code := nodetest.HTTPStatus(b.mux, http.MethodPost, "http://b/measurements", `[{"sensorId":0,"cpm":12,"step":0,"seq":1}]`)
	if code != http.StatusTemporaryRedirect {
		t.Fatalf("standby write = HTTP %d, want 307", code)
	}
	if loc := rec.Header().Get("Location"); loc != "http://a/measurements" {
		t.Fatalf("redirect Location = %q", loc)
	}

	// Agent aimed at the standby: delivery succeeds via the redirect.
	sensors := len(scenario.A(50, false).Sensors)
	readings := chaosReadings(sensors)
	c := nodetest.NewClient(t, fab, "http://b", "redirected", "")
	nodetest.SendRounds(t, c, readings, sensors)
	st := c.Stats()
	if st.Redirects != 1 || st.Delivered != uint64(len(readings)) {
		t.Fatalf("client stats = %+v, want 1 redirect and full delivery", st)
	}

	aBack := a.backend(t, "default")
	if aBack.Offset() == 0 {
		t.Fatal("primary journaled nothing")
	}
	nodetest.WaitUntil(t, "replication back to the standby", func() bool {
		return b.backend(t, "default").Offset() == aBack.Offset()
	})
}

// TestClusterPartitionedStandbyDegrades pins the graceful-degradation
// contract: a partitioned standby keeps serving reads, reports itself
// unready and lagging (gauge and status), refuses writes (no split
// brain), and catches up cleanly after the heal — while the primary
// keeps accepting writes throughout.
func TestClusterPartitionedStandbyDegrades(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	a := newClusterTestNode(t, fab, "a", &routes)
	b := newClusterTestNode(t, fab, "b", &routes)

	sensors := len(scenario.A(50, false).Sensors)
	readings := chaosReadings(sensors)
	agent := nodetest.NewClient(t, fab, "http://a", "partition", "")
	nodetest.SendRounds(t, agent, readings[:2*sensors], sensors)
	aBack := a.backend(t, "default")
	nodetest.WaitUntil(t, "initial catch-up", func() bool {
		return aBack.Offset() > 0 && b.backend(t, "default").Offset() == aBack.Offset()
	})
	nodetest.WaitUntil(t, "initial readiness", func() bool {
		_, code := nodetest.HTTPStatus(b.mux, http.MethodGet, "http://b/readyz", "")
		return code == http.StatusOK
	})

	// Partition the standby's replication path only.
	offBefore := aBack.Offset()
	b.link.Cut("a", true)
	nodetest.WaitUntil(t, "standby to notice the partition", func() bool {
		st, ok := b.status("default")
		return ok && !st.CaughtUp && st.LastError != ""
	})

	// Writes keep flowing to the primary through the partition.
	nodetest.SendRounds(t, agent, readings[2*sensors:4*sensors], sensors)
	if got := aBack.Offset(); got <= offBefore {
		t.Fatalf("primary stopped journaling under partition (offset %d, was %d)", got, offBefore)
	}
	// The standby degrades honestly: unready, lag gauge climbing,
	// reads still served, writes still refused.
	if _, code := nodetest.HTTPStatus(b.mux, http.MethodGet, "http://b/readyz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("partitioned standby /readyz = %d, want 503", code)
	}
	nodetest.WaitUntil(t, "lag gauge to rise", func() bool {
		v, ok := nodetest.ScrapeGauge(t, b.mux, "radloc_repl_lag_seconds")
		return ok && v > 0
	})
	if _, code := nodetest.HTTPStatus(b.mux, http.MethodGet, "http://b/snapshot", ""); code != http.StatusOK {
		t.Fatalf("partitioned standby stopped serving reads")
	}
	if _, code := nodetest.HTTPStatus(b.mux, http.MethodPost, "http://b/measurements", `[{"sensorId":1,"cpm":14}]`); code != http.StatusTemporaryRedirect {
		t.Fatalf("partitioned standby write = %d, want 307 (split brain guard)", code)
	}

	// Heal: the standby drains the backlog and is ready again.
	b.link.Cut("a", false)
	nodetest.WaitUntil(t, "catch-up after heal", func() bool {
		st, ok := b.status("default")
		return ok && st.CaughtUp && b.backend(t, "default").Offset() == aBack.Offset()
	})
	nodetest.WaitUntil(t, "readiness after heal", func() bool {
		_, code := nodetest.HTTPStatus(b.mux, http.MethodGet, "http://b/readyz", "")
		return code == http.StatusOK
	})
}

// TestClusterLiveMigration walks the migrate sequence the ctl command
// drives — replicate, catch up, drain, promote, release — for a named
// zone, with the source node alive throughout.
func TestClusterLiveMigration(t *testing.T) {
	fab := nodetest.NewFabric()
	empty := cluster.Routes{}
	a := newClusterTestNode(t, fab, "a", &empty)
	b := newClusterTestNode(t, fab, "b", &empty)

	sensors := len(scenario.A(50, false).Sensors)
	readings := chaosReadings(sensors)
	agent := nodetest.NewClient(t, fab, "http://a", "migrate", "west")
	nodetest.SendRounds(t, agent, readings[:3*sensors], sensors)
	aBack := a.backend(t, "west")
	if aBack.Offset() == 0 {
		t.Fatal("source journaled nothing")
	}

	// Step 1: target warms up against the live owner.
	if err := b.node.Replicate("west", "http://a"); err != nil {
		t.Fatal(err)
	}
	nodetest.WaitUntil(t, "migration target catch-up", func() bool {
		st, ok := b.status("west")
		return ok && st.CaughtUp && b.backend(t, "west").Offset() == aBack.Offset()
	})

	// Step 2: drain the source; writes bounce with Retry-After so the
	// agent's retry machinery holds them instead of losing them.
	if err := a.node.SetDraining("west", true); err != nil {
		t.Fatal(err)
	}
	rec, code := nodetest.HTTPStatus(a.mux, http.MethodPost, "http://a/zones/west/measurements", `[{"sensorId":2,"cpm":13}]`)
	if code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("draining write = HTTP %d (Retry-After %q), want 503 with hint", code, rec.Header().Get("Retry-After"))
	}
	head := aBack.Offset()
	nodetest.WaitUntil(t, "final records to reach the target", func() bool {
		return b.backend(t, "west").Offset() >= head
	})

	// Step 3: cut over.
	if _, err := b.node.Promote("west"); err != nil {
		t.Fatal(err)
	}
	if err := a.node.Release("west", "http://b"); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.zs.manager.Lookup("west"); ok {
		t.Fatal("released zone still live on the source")
	}

	// The source now redirects the zone's writes to the new owner, and
	// the agent follows without losing a reading.
	rec, code = nodetest.HTTPStatus(a.mux, http.MethodPost, "http://a/zones/west/measurements", `[{"sensorId":2,"cpm":13,"step":3,"seq":4}]`)
	if code != http.StatusTemporaryRedirect || rec.Header().Get("Location") != "http://b/zones/west/measurements" {
		t.Fatalf("post-release write = HTTP %d Location %q", code, rec.Header().Get("Location"))
	}
	before := b.backend(t, "west").Offset()
	nodetest.SendRounds(t, agent, readings[3*sensors:], sensors)
	if st := agent.Stats(); st.Redirects == 0 {
		t.Fatalf("agent never followed the migration redirect: %+v", st)
	}
	if got := b.backend(t, "west").Offset(); got <= before {
		t.Fatalf("new owner journaled nothing after cutover (offset %d)", got)
	}
}

// parkingWriter is an http.ResponseWriter whose second Write — the
// first record frame after the hello — blocks until release closes:
// a standby that stopped reading mid-pull.
type parkingWriter struct {
	header  http.Header
	writes  int
	parked  chan struct{}
	release chan struct{}
}

func (w *parkingWriter) Header() http.Header { return w.header }
func (w *parkingWriter) WriteHeader(int)     {}
func (w *parkingWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		close(w.parked)
		<-w.release
	}
	return len(p), nil
}

// TestClusterSlowStandbyDoesNotStallPrimary parks a /cluster/wal pull
// on its first record frame: the primary's next write to that zone
// must still be acknowledged promptly, because the records were copied
// off the zone's loop before any frame was written.
func TestClusterSlowStandbyDoesNotStallPrimary(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{"default": {Primary: "http://a"}}}
	a := newClusterTestNode(t, fab, "a", &routes)
	sc := scenario.A(50, false)
	postRounds(t, a.mux, "http://a", sc, 0, 3)
	st, ok := a.status("default")
	if !ok || a.backend(t, "default").Offset() == 0 {
		t.Fatal("primary journaled nothing to pull")
	}

	w := &parkingWriter{header: http.Header{}, parked: make(chan struct{}), release: make(chan struct{})}
	defer close(w.release)
	go a.mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("http://a/cluster/wal/default?from=0&epoch=%d", st.Epoch), nil))
	<-w.parked

	posted := make(chan int, 1)
	go func() {
		_, code := nodetest.HTTPStatus(a.mux, http.MethodPost, "http://a/measurements", `{"sensorId":0,"cpm":12,"step":3}`)
		posted <- code
	}()
	select {
	case code := <-posted:
		if code != http.StatusOK {
			t.Fatalf("POST /measurements during a parked pull = %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("POST /measurements waited behind a parked /cluster/wal pull")
	}
}

// TestClusterRequiresWAL pins that cluster mode is refused without a
// WAL: the replication stream is the WAL, so a WAL-less primary would
// report a caught-up standby that holds nothing.
func TestClusterRequiresWAL(t *testing.T) {
	_, err := New(Config{Scenario: scenario.A(50, false), ClusterSelf: "http://a"})
	if err == nil || !strings.Contains(err.Error(), "WALDir") {
		t.Fatalf("New with ClusterSelf and no WALDir: error = %v, want one naming WALDir", err)
	}
}

// TestClusterApplyRefusesZoneWithoutWAL checks the write pipeline's
// replicated entry on a node without durability: the batch is refused
// and nothing reaches the engine.
func TestClusterApplyRefusesZoneWithoutWAL(t *testing.T) {
	nd, err := New(Config{Scenario: scenario.A(50, false), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nd.Shutdown() })
	z := nd.zs.defaultZone()
	before := z.Snapshot().Ingested
	ent := wal.Entry{Rec: wal.Record{SensorID: 0, CPM: 10, Seq: 1}}
	if err := nd.Pipeline().Apply(z, 0, []wal.Entry{ent}); err == nil {
		t.Fatal("replicated apply into a zone without a WAL succeeded")
	}
	if got := z.Snapshot().Ingested; got != before {
		t.Fatalf("ingested moved from %d to %d on a refused apply", before, got)
	}
}
