package node

// Unattended-HA integration tests: the failover.Promoter driving real
// daemon stacks over the in-process fabric. The scenarios mirror the
// ISSUE's acceptance criteria — kill the primary and the standby
// promotes itself with no operator in the loop and ends bit-identical
// to a clean run; a flapping link never thrashes the epoch; a lagging
// standby refuses the promotion; and a resurrected primary quarantines
// its divergent WAL suffix and rejoins as a clean standby.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"radloc/internal/clock"
	"radloc/internal/cluster"
	"radloc/internal/failover"
	"radloc/internal/node/nodetest"
	"radloc/internal/scenario"
	"radloc/internal/vfs"
)

// newTestPromoter wires a promoter to one test node's cluster layer
// over that node's own fabric link, on a fake clock so tests drive
// the probe schedule deterministically with Tick.
func newTestPromoter(t *testing.T, n *clusterTestNode, self string, peers []string, tune func(*failover.Options)) (*failover.Promoter, *clock.Fake) {
	t.Helper()
	fc := clock.NewFake(time.Unix(1000, 0))
	opts := failover.Options{
		Node:     n.node,
		Self:     self,
		Peers:    peers,
		HTTP:     n.link,
		Clock:    fc,
		Interval: 2 * time.Second,
		Suspect:  2,
		HoldDown: 4 * time.Second,
		Metrics:  n.reg,
	}
	if tune != nil {
		tune(&opts)
	}
	prom, err := failover.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return prom, fc
}

// TestFailoverUnattendedPromotion is the headline criterion: the
// primary dies, nobody runs `radloc ctl promote`, and the standby's
// failure detector promotes it through the epoch-fencing path. After
// at-least-once redelivery of the whole stream the promoted node is
// bit-identical to an uninterrupted standalone run, and its routing
// table asserts the new ownership at the bumped epoch.
func TestFailoverUnattendedPromotion(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	a := newClusterTestNode(t, fab, "a", &routes)
	b := newClusterTestNode(t, fab, "b", &routes)
	clean := newClusterTestNode(t, fab, "c", nil)

	sensors := len(scenario.A(50, false).Sensors)
	readings := chaosReadings(sensors)
	half := (len(readings) / (2 * sensors)) * sensors

	nodetest.SendRounds(t, nodetest.NewClient(t, fab, "http://c", "clean", ""), readings, sensors)
	wantSnap, wantHealth := normalizedState(t, clean.zs.defaultZone())

	nodetest.SendRounds(t, nodetest.NewClient(t, fab, "http://a", "pre-kill", ""), readings[:half], sensors)
	aBack := a.backend(t, "default")
	nodetest.WaitUntil(t, "standby catch-up before the kill", func() bool {
		st, ok := b.status("default")
		return ok && st.CaughtUp && b.backend(t, "default").Offset() == aBack.Offset()
	})

	prom, fc := newTestPromoter(t, b, "http://b", []string{"http://a"}, nil)
	prom.Tick(context.Background()) // healthy round: peer up, routes merged
	if got := prom.Peers(); len(got) != 1 || !got[0].Up {
		t.Fatalf("peer view before the kill = %+v, want up", got)
	}

	// Kill the primary: probes and replication both go dark.
	b.link.Cut("a", true)
	fc.Advance(3 * time.Second)
	prom.Tick(context.Background()) // miss 1: suspicion building, no action
	if st, _ := b.status("default"); st.Role != cluster.RoleStandby {
		t.Fatalf("promoted after a single miss (role %s)", st.Role)
	}
	fc.Advance(3 * time.Second)
	prom.Tick(context.Background()) // miss 2 + hold-down elapsed: dead

	st, ok := b.status("default")
	if !ok || st.Role != cluster.RolePrimary || st.Epoch != 2 {
		t.Fatalf("zone after unattended failover = %+v, want primary at epoch 2", st)
	}
	if _, code := nodetest.HTTPStatus(b.mux, http.MethodGet, "http://b/readyz", ""); code != http.StatusOK {
		t.Fatalf("promoted node /readyz = %d, want 200", code)
	}
	if rt := b.node.Routes().Zones["default"]; rt.Primary != "http://b" || rt.Epoch != 2 {
		t.Fatalf("routes after promotion = %+v, want self-assertion at epoch 2", rt)
	}
	if v, ok := nodetest.ScrapeGauge(t, b.mux, "radloc_failover_promotions_total"); !ok || v != 1 {
		t.Fatalf("promotions metric = %v (%v), want 1", v, ok)
	}

	// At-least-once redelivery: the promoted node must converge on the
	// clean run bit for bit.
	nodetest.SendRounds(t, nodetest.NewClient(t, fab, "http://b", "post-kill", ""), readings, sensors)
	gotSnap, gotHealth := normalizedState(t, b.zs.defaultZone())
	if !bytes.Equal(wantSnap, gotSnap) {
		t.Errorf("promoted standby diverged from clean run:\nclean:    %s\npromoted: %s", wantSnap, gotSnap)
	}
	if !bytes.Equal(wantHealth, gotHealth) {
		t.Errorf("promoted standby health diverged:\nclean:    %s\npromoted: %s", wantHealth, gotHealth)
	}
}

// TestFailoverFlappingLinkNeverPromotes pins the hold-down contract
// end to end: a link that drops every other probe satisfies the
// suspicion threshold over and over, but each successful probe
// refreshes the last-alive stamp, so the peer is never declared dead
// and the epoch never moves — no thrash, no split brain.
func TestFailoverFlappingLinkNeverPromotes(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	a := newClusterTestNode(t, fab, "a", &routes)
	b := newClusterTestNode(t, fab, "b", &routes)

	prom, fc := newTestPromoter(t, b, "http://b", []string{"http://a"}, func(o *failover.Options) {
		o.Suspect = 1                 // suspicion is instant...
		o.HoldDown = 10 * time.Second // ...the hold-down does the work
	})
	for cycle := 0; cycle < 6; cycle++ {
		b.link.Cut("a", true)
		fc.Advance(3 * time.Second)
		prom.Tick(context.Background()) // miss: suspected immediately
		b.link.Cut("a", false)
		fc.Advance(3 * time.Second)
		prom.Tick(context.Background()) // alive: hold-down resets
	}

	if st, _ := b.status("default"); st.Role != cluster.RoleStandby || st.Epoch != 1 {
		t.Fatalf("flapping link moved the zone: %+v, want standby at epoch 1", st)
	}
	if st, _ := a.status("default"); st.Role != cluster.RolePrimary || st.Epoch != 1 {
		t.Fatalf("flapping link disturbed the primary: %+v", st)
	}
	for _, m := range []string{"radloc_failover_peer_deaths_total", "radloc_failover_promotions_total"} {
		if v, ok := nodetest.ScrapeGauge(t, b.mux, m); ok && v != 0 {
			t.Fatalf("%s = %v under flapping, want 0", m, v)
		}
	}
}

// TestFailoverLagBoundRefusal pins the safety valve: the primary dies
// while the standby is measurably behind the last head it saw, the
// lag exceeds the configured bound, and the promoter refuses — raising
// the refusal counter and leaving promotion to the operator.
func TestFailoverLagBoundRefusal(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://f", Standby: "http://b"},
	}}
	// A scripted primary that advertises head 7 but ships no records:
	// the standby learns exactly how far behind it is and stays there.
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /cluster/routes", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(cluster.Routes{})
	})
	mux.HandleFunc("GET /cluster/wal/{zone}", func(w http.ResponseWriter, r *http.Request) {
		from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if err != nil {
			t.Error(err)
		}
		hello, err := cluster.EncodeControl(cluster.Frame{Type: cluster.FrameHello, Epoch: 1, Head: 7, Off: from})
		if err != nil {
			t.Error(err)
		}
		end, err := cluster.EncodeControl(cluster.Frame{Type: cluster.FrameEnd, Epoch: 1, Head: 7})
		if err != nil {
			t.Error(err)
		}
		w.Write(hello)
		w.Write(end)
	})
	fab.Add("f", mux)
	b := newClusterTestNode(t, fab, "b", &routes)

	nodetest.WaitUntil(t, "standby to observe the unreachable lag", func() bool {
		st, ok := b.status("default")
		return ok && st.LagRecords == 7 && !st.CaughtUp
	})

	prom, fc := newTestPromoter(t, b, "http://b", []string{"http://f"}, func(o *failover.Options) {
		o.Suspect = 1
		o.HoldDown = time.Second
		o.MaxPromoteLag = 3 // 7 records behind is above the bound
	})
	prom.Tick(context.Background()) // healthy round
	b.link.Cut("f", true)
	fc.Advance(2 * time.Second)
	prom.Tick(context.Background()) // dead — and promotion must be refused

	st, _ := b.status("default")
	if st.Role != cluster.RoleStandby || st.Epoch != 1 {
		t.Fatalf("lagging standby promoted itself: %+v", st)
	}
	if v, ok := nodetest.ScrapeGauge(t, b.mux, "radloc_failover_refusals_total"); !ok || v < 1 {
		t.Fatalf("refusals metric = %v (%v), want >= 1", v, ok)
	}
	// The refusal is re-evaluated, not terminal: later ticks keep
	// refusing while the lag stands, rather than promoting anyway.
	fc.Advance(3 * time.Second)
	prom.Tick(context.Background())
	if st, _ := b.status("default"); st.Role != cluster.RoleStandby {
		t.Fatalf("refusal did not hold on a later tick: %+v", st)
	}
	if v, _ := nodetest.ScrapeGauge(t, b.mux, "radloc_failover_refusals_total"); v < 2 {
		t.Fatalf("refusals metric = %v after second tick, want >= 2", v)
	}
}

// divergedRecords counts the WAL records quarantined under dir and
// decodes the marker note's accounting.
func divergedRecords(t *testing.T, dir string) (lines uint64, note struct {
	Floor   uint64 `json:"floor"`
	Records uint64 `json:"records"`
}) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("diverged dir: %v", err)
	}
	sawNote := false
	for _, ent := range ents {
		name := ent.Name()
		switch {
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".ndjson"):
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			// Refresh entries ride with their readings and take no
			// offset: only reading lines are records.
			for _, line := range bytes.Split(raw, []byte("\n")) {
				if bytes.Contains(line, []byte(`,"rec":`)) {
					lines++
				}
			}
		case strings.HasPrefix(name, "DIVERGED-") && strings.HasSuffix(name, ".json"):
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &note); err != nil {
				t.Fatalf("unparseable diverged note %s: %v", name, err)
			}
			sawNote = true
		}
	}
	if !sawNote {
		t.Fatalf("no DIVERGED-*.json marker in %s (entries: %v)", dir, ents)
	}
	return lines, note
}

// checkpointsAbove lists the applied offsets of the live checkpoints
// in dir (not diverged/) that lie above floor.
func checkpointsAbove(t *testing.T, dir string, floor uint64) []uint64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, p := range paths {
		hex := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), "checkpoint-"), ".json")
		applied, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			t.Fatalf("checkpoint name %s: %v", p, err)
		}
		if applied > floor {
			out = append(out, applied)
		}
	}
	return out
}

// TestQuarantineDivergedWritesNoCheckpoint pins that divergence
// repair's quarantine step leaves no checkpoint above the floor in the
// live WAL directory: the engine still holds the quarantined state
// until the bootstrap replaces it, so a checkpoint taken in between
// (the zone's cadence firing on a rewound log) would let a restart
// re-seed from exactly the history the repair set aside.
func TestQuarantineDivergedWritesNoCheckpoint(t *testing.T) {
	fab := nodetest.NewFabric()
	dir := t.TempDir()
	a := newClusterTestNodeAt(t, fab, "a", nil, dir)
	sensors := len(scenario.A(50, false).Sensors)
	nodetest.SendRounds(t, nodetest.NewClient(t, fab, "http://a", "agent", ""), chaosReadings(sensors)[:4*sensors], sensors)
	back := a.backend(t, "default")
	head := back.Offset()
	// The floor is above one checkpoint cadence (50) and below both the
	// head and the cadence checkpoint taken after the second round.
	floor := uint64(60)
	if head <= floor {
		t.Fatalf("head %d not above floor %d", head, floor)
	}
	if moved, err := back.QuarantineDiverged(floor); err != nil || moved != head-floor {
		t.Fatalf("QuarantineDiverged = (%d, %v), want (%d, nil)", moved, err, head-floor)
	}
	if got := checkpointsAbove(t, dir, floor); len(got) > 0 {
		t.Fatalf("live checkpoints above the floor %d after quarantine: %v", floor, got)
	}
}

// TestClusterResurrectionDivergenceRepair is the data-safety half of
// the tentpole: a primary keeps accepting writes while partitioned
// from its standby, dies, and comes back after the standby has been
// promoted and has grown its own history past the fork point. The
// resurrected node must learn the new topology, step down, move its
// divergent WAL suffix (and nothing less) into diverged/ where an
// operator can still read it, and rejoin as a caught-up standby
// bit-identical to the new primary.
func TestClusterResurrectionDivergenceRepair(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	walA := t.TempDir()
	a := newClusterTestNodeAt(t, fab, "a", &routes, walA)
	b := newClusterTestNode(t, fab, "b", &routes)

	sensors := len(scenario.A(50, false).Sensors)
	readings := chaosReadings(sensors)
	forkAt := 3 * sensors

	agent := nodetest.NewClient(t, fab, "http://a", "pre-fork", "")
	nodetest.SendRounds(t, agent, readings[:forkAt], sensors)
	aBack := a.backend(t, "default")
	nodetest.WaitUntil(t, "standby catch-up before the fork", func() bool {
		st, ok := b.status("default")
		return ok && st.CaughtUp && b.backend(t, "default").Offset() == aBack.Offset()
	})

	// Partition replication, then land more rounds on the primary only:
	// these records will never ship, and become the divergent suffix.
	b.link.Cut("a", true)
	nodetest.SendRounds(t, agent, readings[forkAt:], sensors)

	// Kill the primary and promote the standby at the fork point.
	a.node.Close()
	if err := a.zs.close(); err != nil {
		t.Fatal(err)
	}
	fab.Add("a", nil) // the host stays dark until the resurrection
	bHead := b.backend(t, "default").Offset()
	if epoch, err := b.node.Promote("default"); err != nil || epoch != 2 {
		t.Fatalf("promote = (%d, %v), want epoch 2", epoch, err)
	}
	// The new primary grows its own post-fork history.
	nodetest.SendRounds(t, nodetest.NewClient(t, fab, "http://b", "post-fork", ""), readings, sensors)

	// Resurrect the old primary over its surviving WAL directory. It
	// boots believing the stale routes — primary for the zone, epoch 1.
	a2 := newClusterTestNodeAt(t, fab, "a", &routes, walA)
	aHead := a2.backend(t, "default").Offset()
	if aHead <= bHead {
		t.Fatalf("resurrected node recovered offset %d, want > fork point %d", aHead, bHead)
	}
	if st, _ := a2.status("default"); st.Role != cluster.RolePrimary {
		t.Fatalf("resurrected node booted as %s, want (stale) primary", st.Role)
	}

	// One probe round: the peer's routing table asserts the zone at
	// epoch 2, the resurrected node steps down and its replica loop
	// runs the divergence repair against the new primary.
	prom, _ := newTestPromoter(t, a2, "http://a", []string{"http://b"}, nil)
	prom.Tick(context.Background())
	nodetest.WaitUntil(t, "resurrected node to step down", func() bool {
		st, ok := a2.status("default")
		return ok && st.Role == cluster.RoleStandby
	})
	bBack := b.backend(t, "default")
	nodetest.WaitUntil(t, "resurrected node to rejoin caught up", func() bool {
		st, ok := a2.status("default")
		return ok && st.CaughtUp && a2.backend(t, "default").Offset() == bBack.Offset()
	})
	// No live checkpoint may hold the quarantined history: the only
	// state above the fork the rejoined node has seen is the new
	// primary's snapshot at its head.
	for _, applied := range checkpointsAbove(t, walA, bHead) {
		if applied != bBack.Offset() {
			t.Fatalf("live checkpoint at %d above the fork point %d is not the new primary's snapshot at %d",
				applied, bHead, bBack.Offset())
		}
	}

	// The divergent suffix — every record past the fork, and only
	// those — sits readable in diverged/, with the marker note agreeing.
	lines, note := divergedRecords(t, filepath.Join(walA, divergedDirName))
	if want := aHead - bHead; lines != want || note.Records != want {
		t.Fatalf("diverged/ holds %d records, note says %d; want exactly %d (offsets %d..%d)",
			lines, note.Records, want, bHead, aHead)
	}
	if note.Floor != bHead {
		t.Fatalf("diverged note floor = %d, want the fork point %d", note.Floor, bHead)
	}

	// And the rejoined standby is bit-identical to the new primary.
	wantSnap, wantHealth := normalizedState(t, b.zs.defaultZone())
	nodetest.WaitUntil(t, "final tail replication", func() bool {
		return a2.backend(t, "default").Offset() == bBack.Offset()
	})
	gotSnap, gotHealth := normalizedState(t, a2.zs.defaultZone())
	if !bytes.Equal(wantSnap, gotSnap) {
		t.Errorf("rejoined standby diverged from the new primary:\nprimary:  %s\nrejoined: %s", wantSnap, gotSnap)
	}
	if !bytes.Equal(wantHealth, gotHealth) {
		t.Errorf("rejoined standby health diverged:\nprimary:  %s\nrejoined: %s", wantHealth, gotHealth)
	}
}

// renameRecorder is a vfs.FS that records every rename's destination.
type renameRecorder struct {
	vfs.FS
	mu  sync.Mutex
	dst map[string]bool
}

func (r *renameRecorder) Rename(oldPath, newPath string) error {
	r.mu.Lock()
	r.dst[newPath] = true
	r.mu.Unlock()
	return r.FS.Rename(oldPath, newPath)
}

func (r *renameRecorder) renamedTo(path string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dst[path]
}

// TestQuarantineDivergedMovesCheckpointsThroughNodeFS pins that
// divergence repair moves checkpoints through the node's filesystem
// seam, like the WAL half of the same repair: every checkpoint that
// lands in diverged/ was renamed there through Config.FS, so fault
// injection and storage metering see the whole repair.
func TestQuarantineDivergedMovesCheckpointsThroughNodeFS(t *testing.T) {
	fab := nodetest.NewFabric()
	dir := t.TempDir()
	rec := &renameRecorder{FS: vfs.OS{}, dst: map[string]bool{}}
	a := newClusterTestNodeAt(t, fab, "a", nil, dir, func(c *Config) { c.FS = rec })
	sensors := len(scenario.A(50, false).Sensors)
	nodetest.SendRounds(t, nodetest.NewClient(t, fab, "http://a", "agent", ""), chaosReadings(sensors)[:4*sensors], sensors)
	// Below the cadence checkpoint taken after the second round (see
	// TestQuarantineDivergedWritesNoCheckpoint), so one must move.
	if _, err := a.backend(t, "default").QuarantineDiverged(60); err != nil {
		t.Fatal(err)
	}
	moved, err := filepath.Glob(filepath.Join(dir, divergedDirName, "checkpoint-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) == 0 {
		t.Fatal("no checkpoint was quarantined into diverged/")
	}
	for _, p := range moved {
		if !rec.renamedTo(p) {
			t.Errorf("checkpoint %s reached diverged/ without going through the node's filesystem", filepath.Base(p))
		}
	}
}
