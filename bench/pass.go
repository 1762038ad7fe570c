package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"radloc/internal/clock"
	"radloc/internal/node"
	"radloc/internal/obs"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/transport"
	"radloc/internal/vfs"
	"radloc/internal/zone"
)

// passConfig is one boot-and-measure pass over a crash image.
type passConfig struct {
	w       *workload
	sc      scenario.Scenario
	seed    uint64
	image   string // crash image directory; every boot gets a fresh copy
	work    string // working directory for this pass
	streams []zoneStream
	warm    []int // warm steps per zone in the image
	window  time.Duration
	// boots is the number of timed boots on each side of the window; the
	// boot that serves the window counts as one of those before it, and
	// always happens.
	boots  int
	traced bool
}

// passResult is everything one pass measured.
type passResult struct {
	setup   []float64 // node.New seconds, one per boot, both sides of the window
	d       *loader
	warmSeq []uint64 // per zone: newest sequence round in the crash image
	// bootRound and bootJournaled pin each zone's journal to rounds:
	// at boot the WAL holds bootJournaled records, through round
	// bootRound.
	bootRound, bootJournaled []uint64
	replayed                 uint64 // WAL records replayed at the measured boot, all zones

	before, after scrape // the node's registry around the window
	heapPeak      uint64 // peak live heap in the window, bytes
	heapRetained  uint64 // retained heap right after the window, bytes
	heapBase      uint64 // retained heap before the measured boot, bytes
	pendingMax    float64
	rt0, rt1      []metrics.Sample
	cpu0, cpu1    time.Duration // process CPU time around the window
	attempts      uint64        // HTTP write attempts, all clients
	served        [][]estimateJSON

	tr       *tracer // traced passes only
	fs       *tracedFS
	windowNs [2]int64 // tracer times at the window's start and end
}

// runtimeMetrics are the runtime/metrics read around the window.
var runtimeMetrics = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid who
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// booted is one node.New on a copy of the crash image.
type booted struct {
	n    *node.Node
	reg  *obs.Registry
	tr   *tracer
	fs   *tracedFS
	secs float64
	// heapBase is the retained heap just before the boot: the
	// harness's own share of the heap.
	heapBase uint64
}

// boot copies the image to dir and times node.New on the copy.
func (pc passConfig) boot(dir string) (booted, error) {
	var b booted
	if err := copyTree(pc.image, dir); err != nil {
		return b, err
	}
	b.reg = obs.NewRegistry()
	var fsys vfs.FS
	if pc.traced {
		b.tr = newTracer()
		b.fs = &tracedFS{FS: vfs.Observe(vfs.OS{}, b.reg), t: b.tr, root: dir,
			inflight: b.reg.Gauge("radloc_ingest_inflight_requests", "Requests currently holding an admission-queue slot.")}
		fsys = b.fs
	}
	b.heapBase = retainedHeap()
	t0 := time.Now()
	n, err := node.New(nodeConfig(pc.w, pc.sc, pc.seed, dir, fsys, b.reg))
	b.n, b.secs = n, time.Since(t0).Seconds()
	return b, err
}

// retainedHeap is the live heap after two forced collections (the
// second empties what sync.Pool caches kept alive through the first).
func retainedHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timedBoots boots count throwaway nodes, each on a fresh copy of the
// image, and returns how long each node.New took.
func (pc passConfig) timedBoots(count int, name string) ([]float64, error) {
	var secs []float64
	for i := 0; i < count; i++ {
		dir := filepath.Join(pc.work, fmt.Sprintf("%s%d", name, i))
		b, err := pc.boot(dir)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		if err := b.n.Shutdown(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		secs = append(secs, b.secs)
	}
	return secs, nil
}

// run times pc.boots boots before the window and pc.boots after it,
// each on a fresh copy of the image, so set-up is sampled on both sides
// of the window. The last boot before the window serves it, on a
// loopback listener.
func (pc passConfig) run() (*passResult, error) {
	res := &passResult{}
	setup, err := pc.timedBoots(pc.boots-1, "pre")
	if err != nil {
		return nil, err
	}
	b, err := pc.boot(filepath.Join(pc.work, "serve"))
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	res.setup = append(setup, b.secs)
	n, reg := b.n, b.reg
	res.tr, res.fs, res.heapBase = b.tr, b.fs, b.heapBase
	defer n.Shutdown()

	var handler http.Handler = n.Handler()
	if res.tr != nil {
		handler = tracedHandler{inner: handler, t: res.tr}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	serving := make(chan struct{})
	go func() {
		defer close(serving)
		_ = srv.Serve(ln) // returns ErrServerClosed once stopServing shuts it down
	}()
	stopServing := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx) // a connection still open after 5 s is closed by Close below
		_ = srv.Close()
		<-serving
	}
	defer stopServing()

	d, err := pc.newLoader("http://"+ln.Addr().String(), res.tr)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, c := range append(d.conns, d.reader) {
			if c != nil {
				c.CloseIdleConnections()
			}
		}
	}()
	res.d = d
	if err := pc.calibrate(d, res); err != nil {
		return nil, err
	}

	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		res.heapPeak, res.pendingMax = sample(reg, pc.w.zones, stop)
	}()
	ctx := context.Background()
	res.before, res.rt0, res.cpu0 = scrapeRegistry(reg), readRuntime(), cpuTime()
	if res.tr != nil {
		res.windowNs[0] = res.tr.now()
	}
	d.run(ctx)
	res.after, res.rt1, res.cpu1 = scrapeRegistry(reg), readRuntime(), cpuTime()
	if res.tr != nil {
		res.windowNs[1] = res.tr.now()
	}
	close(stop)
	<-sampled
	res.heapRetained = retainedHeap()

	for _, c := range d.clients {
		res.attempts += c.Stats().Attempts
	}
	for z, name := range pc.w.zones {
		snap, err := getSnapshot(ctx, d.conns[z%len(d.conns)], d.base+zonePath(name, "/snapshot"))
		if err != nil {
			return nil, err
		}
		res.served = append(res.served, snap.Estimates)
	}
	stopServing()
	if err := n.Shutdown(); err != nil {
		return nil, err
	}
	after, err := pc.timedBoots(pc.boots, "post")
	res.setup = append(res.setup, after...)
	return res, err
}

// newLoader wires the connections and transport clients for one
// window: writeConns connections carry the zones' POSTs, plus one for
// reads if the workload has a reader.
func (pc passConfig) newLoader(base string, tr *tracer) (*loader, error) {
	w := pc.w
	newConn := func() *http.Client {
		var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		if tr != nil {
			rt = tracedRT{inner: rt, t: tr}
		}
		return &http.Client{Transport: rt}
	}
	d := &loader{w: w, base: base, tr: tr, seed: pc.seed, window: pc.window, hardStop: 2*pc.window + 10*time.Second}
	for c := 0; c < w.writeConns; c++ {
		d.conns = append(d.conns, newConn())
	}
	if w.readHz > 0 {
		d.reader = newConn()
	}
	for z, name := range w.zones {
		zoneOpt := name
		if name == zone.DefaultZone {
			zoneOpt = ""
		}
		c, err := transport.NewClient(transport.Options{
			URL:            base,
			Zone:           zoneOpt,
			HTTP:           d.conns[z%len(d.conns)].Transport,
			Clock:          clock.Real{},
			RNG:            rng.NewNamed(pc.seed, "bench/backoff/"+name),
			MaxAttempts:    3,
			AttemptTimeout: 10 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		d.clients = append(d.clients, c)
		st := pc.streams[z].steps[pc.warm[z]-reorderWindow:]
		d.sends = append(d.sends, sendList(st))
		redelivered := 0
		for _, s := range st[:reorderWindow] {
			redelivered += len(s)
		}
		d.redelivered = append(d.redelivered, redelivered)
	}
	// Records are sized up front so the window's own allocations stay
	// the same from run to run (heap_mb counts them).
	sends := 0
	for _, sl := range d.sends {
		sends += len(sl)
	}
	reads := int(w.readHz*pc.window.Seconds()) + len(d.conns) + 1
	d.writes, d.reads, d.late = make([]writeRec, 0, sends), make([]readRec, 0, reads), make([]time.Duration, 0, sends+reads)
	return d, nil
}

// calibrate reads each zone's snapshot and recovery report after boot.
// The journal releases whole sensor rounds in order, so the WAL offset
// at boot pins the round count: the newest round in the crash image
// minus the rounds still held in the reorder gate.
func (pc passConfig) calibrate(d *loader, res *passResult) error {
	ctx := context.Background()
	for z, name := range pc.w.zones {
		hc := d.conns[z%len(d.conns)]
		snap, err := getSnapshot(ctx, hc, d.base+zonePath(name, "/snapshot"))
		if err != nil {
			return err
		}
		var st statez
		if err := fetchJSON(ctx, hc, d.base+zonePath(name, "/statez"), &st); err != nil {
			return err
		}
		if st.Durability.Recovery != nil {
			res.replayed += st.Durability.Recovery.Replayed
		}
		warmSeq := maxSeq(pc.streams[z].steps[:pc.warm[z]])
		res.warmSeq = append(res.warmSeq, warmSeq)
		res.bootRound = append(res.bootRound, warmSeq-reorderWindow)
		res.bootJournaled = append(res.bootJournaled, snap.Journaled)
	}
	return nil
}

// sample records the peak live heap and the peak reorder-gate
// occupancy every 10 ms until stop closes.
func sample(reg *obs.Registry, zones []string, stop <-chan struct{}) (heap uint64, pending float64) {
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	gauges := make([]*obs.Gauge, len(zones))
	for i, z := range zones {
		gauges[i] = reg.With("zone", z).Gauge("radloc_transport_reorder_pending", "Readings currently held in the reorder buffer.")
	}
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(live)
		if v := live[0].Value.Uint64(); v > heap {
			heap = v
		}
		for _, g := range gauges {
			if v := g.Value(); v > pending {
				pending = v
			}
		}
		select {
		case <-stop:
			return heap, pending
		case <-tick.C:
		}
	}
}
