package failover

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"radloc/internal/clock"
	"radloc/internal/cluster"
	"radloc/internal/obs"
	"radloc/internal/wal"
)

// stubBackend is a minimal cluster.Backend: an offset counter with
// just enough behavior for the promoter's decisions to be observable.
type stubBackend struct {
	mu  sync.Mutex
	off uint64
}

func (b *stubBackend) Offset() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.off
}
func (b *stubBackend) SetRetainFloor(uint64)                    {}
func (b *stubBackend) ReadWAL(uint64, int) ([]wal.Entry, error) { return nil, nil }
func (b *stubBackend) ApplyRecords(_ uint64, entries []wal.Entry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.off += uint64(len(entries))
	return nil
}
func (b *stubBackend) ExportState() ([]byte, uint64, error) {
	return []byte(`{}`), b.Offset(), nil
}
func (b *stubBackend) Bootstrap(state []byte, applied uint64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.off = applied
	return nil
}
func (b *stubBackend) Checkpoint() error { return nil }
func (b *stubBackend) QuarantineDiverged(floor uint64) (uint64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	moved := b.off - floor
	b.off = floor
	return moved, nil
}

// fakeNet routes requests to in-process handlers by host, with
// per-host cut switches.
type fakeNet struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	down     map[string]bool
}

func newFakeNet() *fakeNet {
	return &fakeNet{handlers: make(map[string]http.Handler), down: make(map[string]bool)}
}

func (f *fakeNet) cut(host string, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[host] = down
}

func (f *fakeNet) RoundTrip(req *http.Request) (*http.Response, error) {
	f.mu.Lock()
	h, down := f.handlers[req.URL.Host], f.down[req.URL.Host]
	f.mu.Unlock()
	if h == nil || down {
		return nil, fmt.Errorf("fakeNet: host %q unreachable", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// primaryHandler fakes the dead-peer-to-be: /readyz is fine and
// /cluster/wal serves an empty stream, starting where the standby
// asked, that claims the given head, so the standby learns exactly
// how far behind it is.
func primaryHandler(t *testing.T, epoch, head uint64, routes cluster.Routes) http.Handler {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /cluster/routes", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(routes)
	})
	mux.HandleFunc("GET /cluster/wal/{zone}", func(w http.ResponseWriter, r *http.Request) {
		from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if err != nil {
			t.Error(err)
		}
		hello, err := cluster.EncodeControl(cluster.Frame{Type: cluster.FrameHello, Epoch: epoch, Head: head, Off: from})
		if err != nil {
			t.Error(err)
		}
		end, err := cluster.EncodeControl(cluster.Frame{Type: cluster.FrameEnd, Epoch: epoch, Head: head})
		if err != nil {
			t.Error(err)
		}
		w.Write(hello)
		w.Write(end)
	})
	return mux
}

// newStandbyNode builds a real cluster node standing by for zone z1
// under http://a, wired over net. The real clock plus a huge pull
// interval means the replica pulls once at startup and then parks, so
// the promoter's fake-clock schedule stays deterministic.
func newStandbyNode(t *testing.T, net *fakeNet) (*cluster.Node, *stubBackend) {
	t.Helper()
	back := &stubBackend{}
	node, err := cluster.NewNode(cluster.Options{
		Self:         "http://b",
		Resolver:     func(string) (cluster.Backend, error) { return back, nil },
		HTTP:         net,
		PullInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(node.Close)
	err = node.SetRoutes(cluster.Routes{Zones: map[string]cluster.Route{
		"z1": {Primary: "http://a", Standby: "http://b"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return node, back
}

func zoneStatus(t *testing.T, node *cluster.Node, zone string) cluster.ZoneStatus {
	t.Helper()
	for _, st := range node.Status() {
		if st.Zone == zone {
			return st
		}
	}
	t.Fatalf("zone %q not in status", zone)
	return cluster.ZoneStatus{}
}

// waitForPull polls until the standby has seen the primary's head.
func waitForPull(t *testing.T, node *cluster.Node, zone string, head uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := zoneStatus(t, node, zone); st.Head == head {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("standby never saw head %d", head)
}

func TestPromoterPromotesDeadPeersZones(t *testing.T) {
	net := newFakeNet()
	peerRoutes := cluster.Routes{Zones: map[string]cluster.Route{
		"z9": {Primary: "http://a", Epoch: 5},
	}}
	net.mu.Lock()
	net.handlers["a"] = primaryHandler(t, 1, 0, peerRoutes)
	net.mu.Unlock()
	node, _ := newStandbyNode(t, net)

	fc := clock.NewFake(time.Unix(1000, 0))
	reg := obs.NewRegistry()
	prom, err := New(Options{
		Node:     node,
		Self:     "http://b",
		Peers:    []string{"http://a", "http://b"}, // self is skipped
		HTTP:     net,
		Clock:    fc,
		Interval: 2 * time.Second,
		Suspect:  2,
		HoldDown: 5 * time.Second,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A healthy round: peer alive, and its routes table is learned.
	prom.Tick(context.Background())
	if rt, ok := node.Routes().Zones["z9"]; !ok || rt.Epoch != 5 {
		t.Fatalf("routes not learned from peer: %+v", node.Routes().Zones)
	}
	if st := zoneStatus(t, node, "z1"); st.Role != cluster.RoleStandby {
		t.Fatalf("z1 role = %s before death", st.Role)
	}

	// Kill the peer: two misses satisfy suspicion, but the hold-down
	// must elapse before a promotion happens.
	net.cut("a", true)
	fc.Advance(3 * time.Second)
	prom.Tick(context.Background())
	fc.Advance(3 * time.Second)
	prom.Tick(context.Background()) // miss 2, down 6s < but lastAlive was tick 1's time...
	if st := zoneStatus(t, node, "z1"); st.Role == cluster.RolePrimary {
		// Depending on rounding this tick may already exceed hold-down;
		// the assertion that matters is the final state below.
		t.Log("promoted on second miss (hold-down already elapsed)")
	}
	fc.Advance(3 * time.Second)
	prom.Tick(context.Background())

	st := zoneStatus(t, node, "z1")
	if st.Role != cluster.RolePrimary {
		t.Fatalf("z1 role = %s after death + hold-down, want primary", st.Role)
	}
	if st.Epoch != 2 {
		t.Fatalf("z1 epoch = %d after unattended promotion, want 2", st.Epoch)
	}
	if got := len(prom.Peers()); got != 1 {
		t.Fatalf("promoter tracks %d peers, want 1 (self skipped)", got)
	}
	if !prom.Peers()[0].Dead {
		t.Fatal("peer not reported dead")
	}
}

func TestPromoterHoldDownPreventsFlapPromotions(t *testing.T) {
	net := newFakeNet()
	net.mu.Lock()
	net.handlers["a"] = primaryHandler(t, 1, 0, cluster.Routes{})
	net.mu.Unlock()
	node, _ := newStandbyNode(t, net)

	fc := clock.NewFake(time.Unix(1000, 0))
	prom, err := New(Options{
		Node:     node,
		Self:     "http://b",
		Peers:    []string{"http://a"},
		HTTP:     net,
		Clock:    fc,
		Interval: 2 * time.Second,
		Suspect:  1,                // suspicion is instant...
		HoldDown: 10 * time.Second, // ...but the hold-down is long
	})
	if err != nil {
		t.Fatal(err)
	}

	// Flap: three missed probes, then one answered, repeatedly. The
	// misses repeatedly satisfy the suspicion threshold, but every
	// successful probe refreshes lastAlive, so the peer is never
	// continuously down for the hold-down window and no promotion can
	// happen — this is the epoch-thrash defense.
	for cycle := 0; cycle < 5; cycle++ {
		net.cut("a", true)
		for i := 0; i < 3; i++ {
			fc.Advance(2 * time.Second)
			prom.Tick(context.Background())
		}
		net.cut("a", false)
		fc.Advance(2 * time.Second)
		prom.Tick(context.Background())
	}

	st := zoneStatus(t, node, "z1")
	if st.Role != cluster.RoleStandby {
		t.Fatalf("z1 role = %s after flapping, want standby", st.Role)
	}
	if st.Epoch != 1 {
		t.Fatalf("z1 epoch = %d after flapping, want 1 (no thrash)", st.Epoch)
	}
	if prom.Peers()[0].Dead {
		t.Fatal("flapping peer declared dead")
	}
}

func TestPromoterRefusesWhenLagAboveBound(t *testing.T) {
	net := newFakeNet()
	net.mu.Lock()
	net.handlers["a"] = primaryHandler(t, 1, 100, cluster.Routes{}) // head 100, ships nothing
	net.mu.Unlock()
	node, _ := newStandbyNode(t, net)
	waitForPull(t, node, "z1", 100) // standby now knows it is 100 records behind

	fc := clock.NewFake(time.Unix(1000, 0))
	reg := obs.NewRegistry()
	prom, err := New(Options{
		Node:          node,
		Self:          "http://b",
		Peers:         []string{"http://a"},
		HTTP:          net,
		Clock:         fc,
		Interval:      2 * time.Second,
		Suspect:       1,
		HoldDown:      2 * time.Second,
		MaxPromoteLag: 10,
		Metrics:       reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	net.cut("a", true)
	fc.Advance(3 * time.Second)
	prom.Tick(context.Background())
	fc.Advance(3 * time.Second)
	prom.Tick(context.Background())

	st := zoneStatus(t, node, "z1")
	if st.Role != cluster.RoleStandby {
		t.Fatalf("z1 role = %s, want standby (lag 100 > bound 10)", st.Role)
	}
	if st.Epoch != 1 {
		t.Fatalf("z1 epoch = %d, want 1", st.Epoch)
	}
	if !prom.Peers()[0].Dead {
		t.Fatal("peer should be declared dead even when promotion is refused")
	}
	snap := metricValue(t, reg, "radloc_failover_refusals_total")
	if snap < 1 {
		t.Fatalf("refusals counter = %v, want >= 1", snap)
	}
	if promoted := metricValue(t, reg, "radloc_failover_promotions_total"); promoted != 0 {
		t.Fatalf("promotions counter = %v, want 0", promoted)
	}
}

// metricValue reads one unlabeled counter/gauge from the registry's
// text exposition.
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	var val float64
	found := false
	for _, line := range strings.Split(buf.String(), "\n") {
		var got float64
		if n, _ := fmt.Sscanf(line, name+" %f", &got); n == 1 {
			val, found = got, true
		}
	}
	if !found {
		t.Fatalf("metric %s not found", name)
	}
	return val
}

// stepClock is a wall clock whose waits end at once. It records each
// requested wait and calls stop at the 20th.
type stepClock struct {
	clock.Real
	waits []time.Duration
	stop  func()
}

func (c *stepClock) WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	c.waits = append(c.waits, d)
	if len(c.waits) == 20 {
		c.stop()
	}
	return context.WithTimeout(ctx, 0)
}

// TestRunJittersDefaultSchedule pins the ±20% probe jitter with
// default options: a fleet restarted together must not probe in
// lockstep, so the intervals spread, but never past the ±20% band.
func TestRunJittersDefaultSchedule(t *testing.T) {
	node, _ := newStandbyNode(t, newFakeNet())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clk := &stepClock{stop: cancel}
	prom, err := New(Options{Node: node, Self: "http://b", Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	prom.Run(ctx)
	interval := prom.opts.Interval
	seen := make(map[time.Duration]bool)
	for _, d := range clk.waits {
		if d < 8*interval/10 || d > 12*interval/10 {
			t.Fatalf("interval %v outside ±20%% of %v", d, interval)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("20 intervals took %d distinct value(s), want jitter", len(seen))
	}
}

// TestRunProbesAtOnce pins detection timing: Run probes before its
// first wait, so a peer down at boot starts accruing misses at once,
// and cancelling Run mid-wait returns without waiting out the interval.
func TestRunProbesAtOnce(t *testing.T) {
	node, _ := newStandbyNode(t, newFakeNet())
	prom, err := New(Options{Node: node, Self: "http://b", Peers: []string{"http://a"}, HTTP: newFakeNet(), Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		prom.Run(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for prom.Peers()[0].Misses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("Run did not probe before its first wait")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return when cancelled mid-wait")
	}
	if got := prom.Peers()[0].Misses; got != 1 {
		t.Errorf("peer has %d misses after one probe round, want 1", got)
	}
}
