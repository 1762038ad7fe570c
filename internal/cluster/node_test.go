package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"radloc/internal/wal"
)

// memBackend is an in-memory Backend with the same contract as the
// daemon's WAL-backed one: contiguous records, prunable prefix,
// snapshot export/bootstrap.
type memBackend struct {
	mu       sync.Mutex
	base     uint64 // offset of recs[0]
	recs     []wal.Entry
	retain   uint64
	boots    int
	ckpts    int
	diverged []wal.Entry
}

func newMemBackend(n int) *memBackend {
	b := &memBackend{retain: ^uint64(0)}
	for i := 0; i < n; i++ {
		b.append()
	}
	return b
}

func (b *memBackend) append() {
	b.mu.Lock()
	defer b.mu.Unlock()
	off := b.base + uint64(len(b.recs))
	b.recs = append(b.recs, wal.Entry{Rec: wal.Record{SensorID: int(off % 7), CPM: 10 + int(off), Seq: off}})
}

func (b *memBackend) prune(keep uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if keep > b.retain {
		keep = b.retain
	}
	for b.base < keep && len(b.recs) > 0 {
		b.recs = b.recs[1:]
		b.base++
	}
}

func (b *memBackend) Offset() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.base + uint64(len(b.recs))
}

func (b *memBackend) oldest() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.base
}

func (b *memBackend) ReadWAL(from uint64, max int) ([]wal.Entry, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if from < b.base {
		return nil, ErrPruned
	}
	var out []wal.Entry
	for off := from; off < b.base+uint64(len(b.recs)) && len(out) < max; off++ {
		out = append(out, b.recs[off-b.base])
	}
	return out, nil
}

func (b *memBackend) SetRetainFloor(off uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.retain = off
}

func (b *memBackend) retainFloor() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.retain
}

func (b *memBackend) ApplyRecords(first uint64, entries []wal.Entry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if want := b.base + uint64(len(b.recs)); first != want {
		return fmt.Errorf("memBackend: offset gap: got %d, want %d", first, want)
	}
	b.recs = append(b.recs, entries...)
	return nil
}

type memSnapshot struct {
	Base uint64      `json:"base"`
	Recs []wal.Entry `json:"recs"`
}

func (b *memBackend) ExportState() ([]byte, uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	blob, err := json.Marshal(memSnapshot{Base: b.base, Recs: append([]wal.Entry(nil), b.recs...)})
	return blob, b.base + uint64(len(b.recs)), err
}

func (b *memBackend) Bootstrap(state []byte, applied uint64) error {
	var snap memSnapshot
	if err := json.Unmarshal(state, &snap); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if snap.Base+uint64(len(snap.Recs)) != applied {
		return fmt.Errorf("memBackend: snapshot covers %d, applied says %d", snap.Base+uint64(len(snap.Recs)), applied)
	}
	b.base, b.recs = snap.Base, snap.Recs
	b.boots++
	return nil
}

func (b *memBackend) Checkpoint() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ckpts++
	return nil
}

func (b *memBackend) QuarantineDiverged(floor uint64) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	head := b.base + uint64(len(b.recs))
	if floor >= head {
		return 0, nil
	}
	if floor < b.base {
		floor = b.base
	}
	moved := head - floor
	b.diverged = append(b.diverged, b.recs[floor-b.base:]...)
	b.recs = b.recs[:floor-b.base]
	return moved, nil
}

// records returns a copy of the live record window.
func (b *memBackend) records() []wal.Entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]wal.Entry(nil), b.recs...)
}

// fabric dispatches requests to in-process handlers by URL host, with
// per-host partitions — a deterministic two-node network.
type fabric struct {
	mu    sync.Mutex
	hosts map[string]http.Handler
	down  map[string]bool
}

func newFabric() *fabric {
	return &fabric{hosts: make(map[string]http.Handler), down: make(map[string]bool)}
}

func (f *fabric) partition(host string, cut bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[host] = cut
}

func (f *fabric) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	h, down := f.hosts[req.URL.Host], f.down[req.URL.Host]
	f.mu.Unlock()
	if h == nil || down {
		return nil, fmt.Errorf("fabric: host %q unreachable", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// testPair wires a primary node "a" and a standby node "b" for one
// zone over a fabric.
type testPair struct {
	fab          *fabric
	backA, backB *memBackend
	nodeA, nodeB *Node
	muxA, muxB   *http.ServeMux
}

func newTestPair(t *testing.T, zoneName string, seedRecords int) *testPair {
	t.Helper()
	p := &testPair{fab: newFabric(), backA: newMemBackend(seedRecords), backB: newMemBackend(0)}
	var err error
	p.nodeA, err = NewNode(Options{
		Self:     "http://a",
		Resolver: func(string) (Backend, error) { return p.backA, nil },
		HTTP:     p.fab, PullInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.nodeB, err = NewNode(Options{
		Self:     "http://b",
		Resolver: func(string) (Backend, error) { return p.backB, nil },
		HTTP:     p.fab, PullInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.muxA, p.muxB = http.NewServeMux(), http.NewServeMux()
	p.nodeA.Mount(p.muxA)
	p.nodeB.Mount(p.muxB)
	p.fab.hosts["a"], p.fab.hosts["b"] = p.muxA, p.muxB
	t.Cleanup(p.nodeA.Close)
	t.Cleanup(p.nodeB.Close)
	routes := Routes{Zones: map[string]Route{zoneName: {Primary: "http://a", Standby: "http://b"}}}
	if err := p.nodeA.SetRoutes(routes); err != nil {
		t.Fatal(err)
	}
	if err := p.nodeB.SetRoutes(routes); err != nil {
		t.Fatal(err)
	}
	return p
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func zoneStatus(n *Node, zone string) (ZoneStatus, bool) {
	for _, st := range n.Status() {
		if st.Zone == zone {
			return st, true
		}
	}
	return ZoneStatus{}, false
}

func TestReplicationCatchUpAndAck(t *testing.T) {
	p := newTestPair(t, "z1", 25)

	waitFor(t, "standby to replay the seed", func() bool { return p.backB.Offset() == 25 })
	for i := 0; i < 10; i++ {
		p.backA.append()
	}
	waitFor(t, "standby to follow the live tail", func() bool { return p.backB.Offset() == 35 })
	if !reflect.DeepEqual(p.backA.records(), p.backB.records()) {
		t.Fatal("standby records differ from primary")
	}

	// The pull's from= doubles as the ack watermark: the primary's
	// retention floor must eventually park at the replica's head.
	waitFor(t, "ack watermark to advance", func() bool { return p.backA.retainFloor() >= 25 })

	waitFor(t, "standby readiness", p.nodeB.Ready)
	st, ok := zoneStatus(p.nodeB, "z1")
	if !ok || st.Role != RoleStandby || !st.CaughtUp {
		t.Fatalf("standby status = %+v", st)
	}
	if err := p.nodeA.AdmitWrite("z1"); err != nil {
		t.Fatalf("primary refused a write: %v", err)
	}
	var np *NotPrimaryError
	if err := p.nodeB.AdmitWrite("z1"); !errors.As(err, &np) || np.Primary != "http://a" {
		t.Fatalf("standby AdmitWrite = %v, want NotPrimaryError with redirect", err)
	}
}

func TestPromoteFencesOldPrimary(t *testing.T) {
	p := newTestPair(t, "z1", 10)
	waitFor(t, "standby sync", func() bool { return p.backB.Offset() == 10 })

	epoch, err := p.nodeB.Promote("z1")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promote epoch = %d, want 2", epoch)
	}
	if err := p.nodeB.AdmitWrite("z1"); err != nil {
		t.Fatalf("new primary refused a write: %v", err)
	}
	// Promotion is idempotent: no second epoch bump.
	if again, _ := p.nodeB.Promote("z1"); again != 2 {
		t.Fatalf("re-promote epoch = %d, want 2", again)
	}

	// A demotion carrying a stale epoch must be refused: a partitioned
	// old primary cannot talk the new one out of its promotion.
	if err := p.nodeB.Demote("z1", 1, ""); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale demote = %v, want ErrStaleEpoch", err)
	}

	// A pull carrying the new epoch forces the stale primary to step
	// down: 409 on the wire, standby role locally.
	req := httptest.NewRequest(http.MethodGet, "http://a/cluster/wal/z1?from=0&epoch=2", nil)
	rec := httptest.NewRecorder()
	p.muxA.ServeHTTP(rec, req)
	if rec.Code != http.StatusConflict {
		t.Fatalf("stale primary served a newer-epoch pull: HTTP %d", rec.Code)
	}
	var npe *NotPrimaryError
	if err := p.nodeA.AdmitWrite("z1"); !errors.As(err, &npe) {
		t.Fatalf("fenced primary still admits writes: %v", err)
	}
}

func TestBootstrapAfterPrune(t *testing.T) {
	p := newTestPair(t, "z1", 0)
	// Build the primary's history before the standby exists, then
	// prune past what a cold replica would need.
	p.nodeB.Close()
	for i := 0; i < 40; i++ {
		p.backA.append()
	}
	p.backA.SetRetainFloor(30)
	p.backA.prune(30)
	if p.backA.oldest() != 30 {
		t.Fatalf("prune left oldest = %d", p.backA.oldest())
	}

	backC := newMemBackend(0)
	nodeC, err := NewNode(Options{
		Self:     "http://c",
		Resolver: func(string) (Backend, error) { return backC, nil },
		HTTP:     p.fab, PullInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nodeC.Close()
	if err := nodeC.Replicate("z1", "http://a"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "snapshot bootstrap + catch-up", func() bool { return backC.Offset() == 40 })
	backC.mu.Lock()
	boots := backC.boots
	backC.mu.Unlock()
	if boots != 1 {
		t.Fatalf("bootstraps = %d, want 1", boots)
	}
	// The live tail streams normally after the bootstrap.
	for i := 0; i < 5; i++ {
		p.backA.append()
	}
	waitFor(t, "post-bootstrap tail", func() bool { return backC.Offset() == 45 })
	if backC.oldest() != 30 || !reflect.DeepEqual(p.backA.records(), backC.records()) {
		t.Fatal("bootstrapped replica diverged from primary window")
	}
}

func TestPartitionedStandbyDegradesGracefully(t *testing.T) {
	p := newTestPair(t, "z1", 5)
	waitFor(t, "standby sync", func() bool { return p.backB.Offset() == 5 })

	p.fab.partition("a", true)
	for i := 0; i < 8; i++ {
		p.backA.append()
	}
	waitFor(t, "standby to notice the partition", func() bool {
		st, ok := zoneStatus(p.nodeB, "z1")
		return ok && !st.CaughtUp && st.LastError != ""
	})
	// Writes keep flowing on the primary; the standby refuses them.
	if err := p.nodeA.AdmitWrite("z1"); err != nil {
		t.Fatalf("partitioned primary refused a write: %v", err)
	}
	if err := p.nodeB.AdmitWrite("z1"); err == nil {
		t.Fatal("partitioned standby admitted a write (split brain)")
	}
	if p.nodeB.Ready() {
		t.Fatal("lagging standby reports ready")
	}

	p.fab.partition("a", false)
	waitFor(t, "catch-up after heal", func() bool {
		st, ok := zoneStatus(p.nodeB, "z1")
		return ok && st.CaughtUp && p.backB.Offset() == 13
	})
	if !reflect.DeepEqual(p.backA.records(), p.backB.records()) {
		t.Fatal("healed standby diverged")
	}
}

func TestMigrationHandoff(t *testing.T) {
	p := newTestPair(t, "z1", 12)
	waitFor(t, "standby sync", func() bool { return p.backB.Offset() == 12 })

	if err := p.nodeA.SetDraining("z1", true); err != nil {
		t.Fatal(err)
	}
	if err := p.nodeA.AdmitWrite("z1"); !errors.Is(err, ErrDraining) {
		t.Fatalf("draining primary AdmitWrite = %v, want ErrDraining", err)
	}
	if err := p.nodeB.SetDraining("z1", true); err == nil {
		t.Fatal("draining a standby should fail")
	}

	if _, err := p.nodeB.Promote("z1"); err != nil {
		t.Fatal(err)
	}
	var dropped []string
	p.nodeA.opts.Drop = func(zone string) error { dropped = append(dropped, zone); return nil }
	if err := p.nodeA.Release("z1", "http://b"); err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 1 || dropped[0] != "z1" {
		t.Fatalf("Drop calls = %v", dropped)
	}
	var npe *NotPrimaryError
	if err := p.nodeA.AdmitWrite("z1"); !errors.As(err, &npe) || npe.Primary != "http://b" {
		t.Fatalf("released node AdmitWrite = %v, want redirect to http://b", err)
	}
}

func TestApplyStreamGuards(t *testing.T) {
	n, err := NewNode(Options{Self: "http://x", Resolver: func(string) (Backend, error) { return nil, errors.New("unused") }})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Demote("z", 2, ""); err != nil {
		t.Fatal(err)
	}
	rec := func(off uint64) string {
		line, err := wal.AppendEntry(nil, wal.Entry{Rec: wal.Record{SensorID: 1, CPM: int(off)}})
		if err != nil {
			t.Fatal(err)
		}
		return string(line)
	}
	hello := func(epoch, head, off uint64) string {
		line, _ := EncodeControl(Frame{Type: FrameHello, Epoch: epoch, Head: head, Off: off})
		return string(line)
	}

	// A hello below the standby's epoch is a stale primary: refused,
	// nothing applied.
	b := newMemBackend(0)
	_, _, err = n.applyStream("z", b, 2, strings.NewReader(hello(1, 5, 0)+rec(0)))
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale hello err = %v", err)
	}
	if b.Offset() != 0 {
		t.Fatal("stale stream applied records")
	}

	// A higher hello epoch is adopted.
	b = newMemBackend(0)
	end, _ := EncodeControl(Frame{Type: FrameEnd, Epoch: 3, Head: 1})
	if _, _, err = n.applyStream("z", b, 2, strings.NewReader(hello(3, 1, 0)+rec(0)+string(end))); err != nil {
		t.Fatal(err)
	}
	if st, _ := zoneStatus(n, "z"); st.Epoch != 3 {
		t.Fatalf("epoch after higher hello = %d, want 3", st.Epoch)
	}

	// A torn stream keeps its valid prefix and reports the tear.
	b = newMemBackend(0)
	applied, _, err := n.applyStream("z", b, 3, strings.NewReader(hello(3, 5, 0)+rec(0)+rec(1)+rec(2)+`{"garbage`))
	if err == nil {
		t.Fatal("torn stream decoded cleanly")
	}
	if applied != 3 || b.Offset() != 3 {
		t.Fatalf("torn stream prefix: applied %d, offset %d, want 3", applied, b.Offset())
	}

	// Offsets are positional from the hello's, so a hello that does
	// not start at the standby's head is refused with nothing applied.
	for _, off := range []uint64{1, 3} {
		b = newMemBackend(2)
		applied, _, err = n.applyStream("z", b, 3, strings.NewReader(hello(3, 5, off)+rec(off)+rec(off+1)+string(end)))
		if !errors.Is(err, ErrBadFrame) {
			t.Fatalf("hello at offset %d for head 2: err = %v", off, err)
		}
		if applied != 0 || b.Offset() != 2 {
			t.Fatalf("hello at offset %d for head 2: applied %d, offset %d, want nothing", off, applied, b.Offset())
		}
	}
}

func TestClusterEndpointAuth(t *testing.T) {
	back := newMemBackend(3)
	n, err := NewNode(Options{
		Self:     "http://a",
		Token:    "hunter2",
		Resolver: func(string) (Backend, error) { return back, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	mux := http.NewServeMux()
	n.Mount(mux)

	get := func(path, token string) int {
		req := httptest.NewRequest(http.MethodGet, "http://a"+path, nil)
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := get("/cluster/wal/z1?from=0&epoch=1", ""); code != http.StatusUnauthorized {
		t.Fatalf("tokenless WAL pull: HTTP %d, want 401", code)
	}
	if code := get("/cluster/wal/z1?from=0&epoch=1", "wrong"); code != http.StatusUnauthorized {
		t.Fatalf("bad-token WAL pull: HTTP %d, want 401", code)
	}
	if code := get("/cluster/wal/z1?from=0&epoch=1", "hunter2"); code != http.StatusOK {
		t.Fatalf("authed WAL pull: HTTP %d, want 200", code)
	}
	// Discovery endpoints stay open.
	if code := get("/cluster/status", ""); code != http.StatusOK {
		t.Fatalf("status: HTTP %d, want 200", code)
	}
	// Bad zone names 404 before touching any backend.
	if code := get("/cluster/wal/Not%2FValid?from=0&epoch=1", "hunter2"); code != http.StatusNotFound {
		t.Fatalf("bad zone: HTTP %d, want 404", code)
	}
}

// TestEpochWithoutStartRefused: epoch metadata past the first epoch
// with no start for that epoch — what stores held before they kept
// start history — is refused where the zone is first instantiated,
// instead of being anchored at an assumed start.
func TestEpochWithoutStartRefused(t *testing.T) {
	store := &MemEpochStore{}
	if err := store.Save("z", EpochMeta{Epoch: 3, Starts: []EpochStart{{Epoch: 2, Start: 7}}}); err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Options{Self: "http://x", Epochs: store,
		Resolver: func(string) (Backend, error) { return newMemBackend(0), nil }})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	err = n.SetRoutes(Routes{Zones: map[string]Route{"z": {Primary: "http://x", Epoch: 3}}})
	if !errors.Is(err, ErrNoEpochStart) {
		t.Fatalf("routes naming a zone with a start-less epoch: %v, want ErrNoEpochStart", err)
	}
	if err := store.Save("z", EpochMeta{Epoch: 3, Starts: []EpochStart{{Epoch: 3, Start: 7}}}); err != nil {
		t.Fatal(err)
	}
	if err := n.AdmitWrite("z"); err != nil {
		t.Fatalf("the same zone with its start recorded: %v", err)
	}
}
