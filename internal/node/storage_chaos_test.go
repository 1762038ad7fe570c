package node

// Storage fault-tolerance integration tests: the acceptance criteria
// of the disk-fault work. An ENOSPC window mid-delivery must cost the
// pipeline nothing but 507 round-trips (agents spool through it and
// the final state is bit-identical to an undisturbed run), and a byte
// flipped in cold WAL storage must be detected, quarantined and
// repaired — from a caught-up replica when the cluster has one, from
// the local engine otherwise — with zero acknowledged-durable records
// lost across a crash-restart.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"radloc/internal/clock"
	"radloc/internal/cluster"
	"radloc/internal/fusion"
	"radloc/internal/httpingest"
	"radloc/internal/node/nodetest"
	"radloc/internal/obs"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/transport"
	"radloc/internal/vfs"
	"radloc/internal/wal"
	"radloc/internal/zone"
)

// enospcWindowRT aligns a disk-fault injector with a virtual-time
// window on every request, and on the first 507 it observes probes
// /readyz mid-outage — the only moment the degraded surface is
// visible from outside.
type enospcWindowRT struct {
	inner    http.Handler
	clk      *clock.Fake
	faulty   *vfs.Faulty
	from, to time.Time

	sawReadyzCode   int
	sawReadyzHeader string
}

func (w *enospcWindowRT) RoundTrip(req *http.Request) (*http.Response, error) {
	now := w.clk.Now()
	if w.to.After(w.from) && !now.Before(w.from) && now.Before(w.to) {
		w.faulty.FailWrites(syscall.ENOSPC, false)
		w.faulty.FailSyncs(syscall.ENOSPC)
	} else {
		w.faulty.Heal()
	}
	rec := httptest.NewRecorder()
	w.inner.ServeHTTP(rec, req)
	if rec.Code == http.StatusInsufficientStorage && w.sawReadyzCode == 0 {
		rr := httptest.NewRecorder()
		w.inner.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "http://fusion/readyz", nil))
		w.sawReadyzCode = rr.Code
		w.sawReadyzHeader = rr.Header().Get("X-Radloc-Storage")
	}
	return rec.Result(), nil
}

// runENOSPCDelivery pushes the chaos workload through a full durable
// zone stack (spool → client → ingest → engine → WAL on an injected
// filesystem) with an ENOSPC window of the given length opening at
// t=0, and returns the normalized final state plus the WAL directory
// for post-mortem recovery checks.
func runENOSPCDelivery(t *testing.T, window time.Duration) (snap, health []byte, walDir string, ing *httpingest.Handler, dur *durable, rt *enospcWindowRT) {
	t.Helper()
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	faulty := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 11})
	walDir = t.TempDir()
	n := testNode(t, walDir, func(c *Config) {
		c.FS = faulty
		c.CheckpointEvery = 50
		c.HTTPQueue = 256
		c.RetryAfter = time.Second
	})
	dur = zoneDurable(n.zs.defaultZone())
	ing = n.ingest
	mux := n.Handler()
	start := clk.Now()
	rt = &enospcWindowRT{inner: mux, clk: clk, faulty: faulty, from: start, to: start.Add(window)}
	client, err := transport.NewClient(transport.Options{
		URL: "http://fusion", HTTP: rt, Clock: clk,
		RNG:       rng.NewNamed(7, "storage-chaos/jitter"),
		BatchSize: chaosBatch,
		Backoff:   transport.Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second},
		Breaker:   transport.BreakerConfig{FailureThreshold: 4, Cooldown: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}

	sp, err := transport.OpenSpool(t.TempDir(), transport.SpoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	readings := chaosReadings(len(scenario.A(50, false).Sensors))
	for _, m := range readings {
		if _, err := sp.Append(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Drain(context.Background(), sp); err != nil {
		t.Fatal(err)
	}
	if sp.Pending() != 0 {
		t.Fatalf("spool not drained: %d pending", sp.Pending())
	}
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	if st := client.Stats(); st.Delivered != uint64(len(readings)) {
		t.Fatalf("client delivered %d of %d", st.Delivered, len(readings))
	}
	snap, health = normalizedState(t, n.zs.defaultZone())

	// /readyz is clean again after the heal: the exit edge fired on the
	// first post-window append.
	if rec, code := nodetest.HTTPStatus(mux, http.MethodGet, "http://fusion/readyz", ""); code != http.StatusOK {
		t.Fatalf("post-heal /readyz = %d: %s", code, rec.Body.String())
	}
	// Close every zone cleanly so the WAL directory is a complete
	// crash-restart image (the injector is healed; the close succeeds).
	if err := n.Shutdown(); err != nil {
		t.Fatal(err)
	}
	return snap, health, walDir, ing, dur, rt
}

// TestStorageChaosENOSPCBitIdentical is the headline disk-fault
// criterion: a 30-second disk-full window opens mid-delivery, every
// admission during it is refused with 507 + Retry-After, the agent
// rides it out on its spool — and once space frees, the final fused
// state is bit-identical to a run whose disk never failed, and a
// crash-restart on the WAL finds every acknowledged record.
func TestStorageChaosENOSPCBitIdentical(t *testing.T) {
	cleanSnap, cleanHealth, _, cleanIng, _, _ := runENOSPCDelivery(t, 0)
	chaosSnap, chaosHealth, chaosDir, chaosIng, dur, rt := runENOSPCDelivery(t, 30*time.Second)

	if !bytes.Equal(cleanSnap, chaosSnap) {
		t.Errorf("post-heal snapshot differs from undisturbed run:\nclean: %s\nchaos: %s", cleanSnap, chaosSnap)
	}
	if !bytes.Equal(cleanHealth, chaosHealth) {
		t.Errorf("sensor health differs from undisturbed run:\nclean: %s\nchaos: %s", cleanHealth, chaosHealth)
	}

	// The outage actually bit, and only the chaos run felt it.
	if got := chaosIng.Stats().Shed507; got == 0 {
		t.Error("no 507s shed — the ENOSPC window never fired")
	}
	if got := cleanIng.Stats().Shed507; got != 0 {
		t.Errorf("clean run shed %d 507s", got)
	}
	// Degraded mode engaged during the window and exited after it.
	st := dur.storage.Load()
	degradedTotal, stillDegraded := st.entered, st.degraded
	if degradedTotal == 0 {
		t.Error("zone never entered degraded mode")
	}
	if stillDegraded {
		t.Error("zone still degraded after the heal")
	}
	// Mid-outage, /readyz advertised the impairment with the header the
	// failure detector keys on.
	if rt.sawReadyzCode != http.StatusServiceUnavailable || rt.sawReadyzHeader != "degraded" {
		t.Errorf("mid-outage /readyz = %d header %q, want 503 %q", rt.sawReadyzCode, rt.sawReadyzHeader, "degraded")
	}

	// Crash-restart on the chaos WAL: replay + checkpoint recover every
	// acknowledged record (the journaled count of the bit-identical
	// snapshot), so the 507 window provably lost nothing durable.
	zs2 := testNode(t, chaosDir, func(c *Config) { c.CheckpointEvery = 50 }).zs
	var want snapshotJSON
	if err := json.Unmarshal(chaosSnap, &want); err != nil {
		t.Fatal(err)
	}
	if got := zs2.defaultZone().Snapshot().Journaled; got != want.Journaled {
		t.Fatalf("recovered journaled = %d, want %d — acknowledged records lost", got, want.Journaled)
	}
}

// copyDirFiles snapshots a directory's regular files into dst — the
// observational equivalent of SIGKILL followed by inspecting the disk,
// without disturbing the live zone set.
func copyDirFiles(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// flipByteInSegment corrupts one byte in the middle of the i-th
// oldest WAL segment file in dir — cold corruption, after every write
// was validated and acknowledged — and returns its path.
func flipByteInSegment(t *testing.T, dir string, i int) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.ndjson"))
	if err != nil || len(segs) <= i {
		t.Fatalf("no WAL segment #%d in %s (%d segments): %v", i, dir, len(segs), err)
	}
	sort.Strings(segs)
	blob, err := os.ReadFile(segs[i])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x20
	if err := os.WriteFile(segs[i], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return segs[i]
}

// journalChaosStream submits the chaos workload to zs's default zone
// in chaosBatch-sized batches and syncs its WAL, returning the zone's
// journaled head.
func journalChaosStream(t *testing.T, zs *zoneSet) uint64 {
	t.Helper()
	readings := chaosReadings(len(zs.cfg.Scenario.Sensors))
	for i := 0; i < len(readings); i += chaosBatch {
		batch := make([]fusion.Meas, 0, chaosBatch)
		for _, m := range readings[i:min(i+chaosBatch, len(readings))] {
			batch = append(batch, fusion.Meas{SensorID: m.SensorID, CPM: m.CPM, Step: m.Step, Seq: m.Seq})
		}
		if _, err := zs.manager.Submit(context.Background(), zone.DefaultZone, batch); err != nil {
			t.Fatal(err)
		}
	}
	z := zs.defaultZone()
	if err := z.Do(context.Background(), func(*fusion.Engine) error { return zoneDurable(z).log.Sync() }); err != nil {
		t.Fatal(err)
	}
	return z.Snapshot().Journaled
}

// TestScrubRepairsLocalCold is the standalone-node scrub criterion:
// a byte flips in a cold sealed segment, the scrubber's next tick
// detects it, quarantines the segment into corrupt/, re-anchors
// recovery with a checkpoint from the local engine — and a simulated
// crash-restart on the damaged directory recovers every acknowledged
// record.
func TestScrubRepairsLocalCold(t *testing.T) {
	walRoot := t.TempDir()
	reg := obs.NewRegistry()
	n := testNode(t, walRoot, func(c *Config) {
		// Checkpoint only at shutdown, 8-record segments: the stream
		// below leaves several sealed segments and no checkpoint, so
		// recovery would need the corrupted segment — the scrub repair is
		// what saves it.
		c.WALSegment = 8
		c.Metrics = reg
		c.ScrubInterval = time.Hour // ticked by hand below
	})
	journaled := journalChaosStream(t, n.zs)
	if journaled < 24 {
		t.Fatalf("stream journaled only %d records — not enough sealed segments", journaled)
	}

	flipByteInSegment(t, walRoot, 0)
	n.scr.tick(context.Background())

	// Detection + quarantine: the corrupt segment moved into corrupt/.
	parked, err := filepath.Glob(filepath.Join(walRoot, corruptDirName, "wal-*.ndjson"))
	if err != nil || len(parked) != 1 {
		t.Fatalf("quarantined segments = %v (err %v), want exactly 1", parked, err)
	}
	// Repair: a local checkpoint now anchors recovery past the hole.
	ck, ok, err := wal.LoadCheckpointFS(vfs.OS{}, walRoot)
	if err != nil || !ok {
		t.Fatalf("no repair checkpoint: ok=%v err=%v", ok, err)
	}
	if ck.Applied != journaled {
		t.Fatalf("repair checkpoint applied=%d, want %d (local engine head)", ck.Applied, journaled)
	}

	// Crash-restart on a copy of the damaged directory (no shutdown
	// flush): the repair checkpoint must carry recovery over the hole
	// with zero acknowledged-durable records lost.
	crashDir := t.TempDir()
	copyDirFiles(t, walRoot, crashDir)
	engine2, d2, err := openDurable(crashDir, nil, wal.FsyncNever, 0, 8,
		func(j fusion.Journal) (*fusion.Engine, error) { return n.cfg.engine(j, nil) }, nil, io.Discard)
	if err != nil {
		t.Fatalf("recovery after scrub repair failed: %v", err)
	}
	defer d2.close()
	if !d2.recovery.CheckpointUsed || d2.recovery.CheckpointApplied != journaled {
		t.Fatalf("recovery did not use the repair checkpoint: %+v", d2.recovery)
	}
	if got := engine2.Snapshot().Journaled; got != journaled {
		t.Fatalf("recovered journaled = %d, want %d — acknowledged records lost", got, journaled)
	}
	// Scrub accounting went where it should.
	mux := n.Handler()
	if v, ok := nodetest.ScrapeGauge(t, mux, `radloc_scrub_corruptions_total{kind="segment"}`); !ok || v != 1 {
		t.Errorf("radloc_scrub_corruptions_total{kind=segment} = %v (ok=%v), want 1", v, ok)
	}
	if v, ok := nodetest.ScrapeGauge(t, mux, `radloc_scrub_repairs_total{source="local"}`); !ok || v != 1 {
		t.Errorf("radloc_scrub_repairs_total{source=local} = %v (ok=%v), want 1", v, ok)
	}
}

// TestScrubRepairsFromReplica is the clustered scrub criterion: the
// primary's cold segment corrupts, and the repair checkpoint comes
// from the caught-up standby — an independent copy, immune to
// whatever ate the local disk — fetched over the same authenticated
// wire replication uses.
func TestScrubRepairsFromReplica(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	a := newClusterTestNodeAt(t, fab, "a", &routes, t.TempDir(), func(c *Config) {
		c.ScrubInterval = time.Hour // ticked by hand below
	})
	b := newClusterTestNode(t, fab, "b", &routes)

	sensors := len(scenario.A(50, false).Sensors)
	readings := chaosReadings(sensors)
	nodetest.SendRounds(t, nodetest.NewClient(t, fab, "http://a", "scrub-repl", ""), readings, sensors)
	aBack := a.backend(t, "default")
	nodetest.WaitUntil(t, "standby catch-up", func() bool {
		st, ok := b.status("default")
		return ok && st.CaughtUp && b.backend(t, "default").Offset() == aBack.Offset()
	})
	journaled := aBack.Offset()
	if journaled == 0 {
		t.Fatal("primary journaled nothing")
	}

	// Cold-corrupt the primary's oldest sealed segment, then scrub.
	walRoot := a.zs.cfg.WALDir
	flipByteInSegment(t, walRoot, 0)
	a.n.scr.tick(context.Background())

	parked, err := filepath.Glob(filepath.Join(walRoot, corruptDirName, "wal-*.ndjson"))
	if err != nil || len(parked) != 1 {
		t.Fatalf("quarantined segments = %v (err %v), want exactly 1", parked, err)
	}
	if v, ok := nodetest.ScrapeGauge(t, a.mux, `radloc_scrub_repairs_total{source="replica"}`); !ok || v != 1 {
		t.Fatalf("radloc_scrub_repairs_total{source=replica} = %v (ok=%v), want 1 — repair did not come from the standby", v, ok)
	}
	ck, ok, err := wal.LoadCheckpointFS(vfs.OS{}, walRoot)
	if err != nil || !ok {
		t.Fatalf("no repair checkpoint: ok=%v err=%v", ok, err)
	}
	if ck.Applied < journaled {
		t.Fatalf("replica checkpoint applied=%d, want >= %d (standby was caught up)", ck.Applied, journaled)
	}

	// Crash-restart the primary's directory: the replica-sourced
	// checkpoint carries recovery over the hole, zero records lost.
	crashDir := t.TempDir()
	copyDirFiles(t, walRoot, crashDir)
	engine2, d2, err := openDurable(crashDir, nil, wal.FsyncNever, 0, 16,
		func(j fusion.Journal) (*fusion.Engine, error) { return a.n.cfg.engine(j, nil) }, nil, io.Discard)
	if err != nil {
		t.Fatalf("recovery after replica repair failed: %v", err)
	}
	defer d2.close()
	if !d2.recovery.CheckpointUsed {
		t.Fatalf("recovery ignored the replica checkpoint: %+v", d2.recovery)
	}
	if got := engine2.Snapshot().Journaled; got != journaled {
		t.Fatalf("recovered journaled = %d, want %d — acknowledged records lost", got, journaled)
	}
	// The recovered state is bit-identical to the standby's view of the
	// same journaled prefix — the copy the repair was seeded from.
	gotSnap, gotHealth := normalizedEngineState(t, engine2)
	wantSnap, wantHealth := normalizedState(t, b.zs.defaultZone())
	if !bytes.Equal(gotSnap, wantSnap) {
		t.Errorf("recovered state differs from the replica seed:\nreplica:   %s\nrecovered: %s", wantSnap, gotSnap)
	}
	if !bytes.Equal(gotHealth, wantHealth) {
		t.Errorf("recovered health differs from the replica seed")
	}
}

// TestScrubSkipsDegradedZones pins the targets contract: a zone in
// degraded read-only mode is not scrubbed (its disk cannot accept the
// repair), and reappears once storage recovers.
func TestScrubSkipsDegradedZones(t *testing.T) {
	zs := testNode(t, t.TempDir()).zs
	d := zoneDurable(zs.defaultZone())
	if got := len(zs.scrubTargets()); got != 1 {
		t.Fatalf("scrub targets = %d, want 1", got)
	}
	d.noteAppend(syscall.ENOSPC)
	if got := len(zs.scrubTargets()); got != 0 {
		t.Fatalf("degraded zone still a scrub target (%d)", got)
	}
	d.noteAppend(nil)
	if got := len(zs.scrubTargets()); got != 1 {
		t.Fatalf("recovered zone not re-targeted (%d)", got)
	}
}

// TestReadyzNamesDegradedZones pins the operator surface: /readyz
// goes 503 with the degraded header and the zone names in the body
// while any zone's storage is read-only.
func TestReadyzNamesDegradedZones(t *testing.T) {
	n := testNode(t, t.TempDir())
	zs := n.zs
	// Satisfy the refresh gate so only storage health drives /readyz.
	if err := zs.defaultZone().Do(context.Background(), (*fusion.Engine).Settle); err != nil {
		t.Fatal(err)
	}
	mux := n.Handler()
	if _, code := nodetest.HTTPStatus(mux, http.MethodGet, "http://x/readyz", ""); code != http.StatusOK {
		t.Fatalf("healthy /readyz = %d", code)
	}
	zoneDurable(zs.defaultZone()).noteAppend(syscall.EIO)
	rec, code := nodetest.HTTPStatus(mux, http.MethodGet, "http://x/readyz", "")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /readyz = %d, want 503", code)
	}
	if rec.Header().Get("X-Radloc-Storage") != "degraded" {
		t.Fatal("degraded /readyz missing X-Radloc-Storage header")
	}
	if !strings.Contains(rec.Body.String(), "default") {
		t.Fatalf("degraded /readyz does not name the zone: %s", rec.Body.String())
	}
	zoneDurable(zs.defaultZone()).noteAppend(nil)
	if _, code := nodetest.HTTPStatus(mux, http.MethodGet, "http://x/readyz", ""); code != http.StatusOK {
		t.Fatalf("recovered /readyz = %d", code)
	}
}

// TestScrubCheckpointQuarantineKeepsLastCheckpointAgreed corrupts the
// newest of two checkpoints and lets the scrubber quarantine it: /statez
// lastCheckpoint and radloc_durable_last_checkpoint_offset must both
// fall back to the older one, never disagree.
func TestScrubCheckpointQuarantineKeepsLastCheckpointAgreed(t *testing.T) {
	walRoot := t.TempDir()
	reg := obs.NewRegistry()
	n := testNode(t, walRoot, func(c *Config) {
		c.Metrics = reg
		c.ScrubInterval = time.Hour // ticked by hand below
	})
	zs := n.zs
	z, d := zs.defaultZone(), zoneDurable(zs.defaultZone())
	sensors := len(scenario.A(50, false).Sensors)
	var applied []uint64
	for step := 0; step < 2; step++ {
		batch := make([]fusion.Meas, sensors)
		for i := range batch {
			batch[i] = fusion.Meas{SensorID: i, CPM: 12, Step: step}
		}
		if _, err := zs.manager.Submit(context.Background(), zone.DefaultZone, batch); err != nil {
			t.Fatal(err)
		}
		if err := z.Do(context.Background(), func(*fusion.Engine) error { return d.checkpoint() }); err != nil {
			t.Fatal(err)
		}
		applied = append(applied, z.Snapshot().Journaled)
	}
	if applied[0] == 0 || applied[1] <= applied[0] {
		t.Fatalf("checkpoints at %v, want two distinct non-zero offsets", applied)
	}
	newest := filepath.Join(walRoot, fmt.Sprintf("checkpoint-%016x.json", applied[1]))
	if err := os.WriteFile(newest, []byte("not a checkpoint\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n.scr.tick(context.Background())

	mux := n.Handler()
	rec, code := nodetest.HTTPStatus(mux, http.MethodGet, "http://x/statez", "")
	var st statezJSON
	if code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatalf("GET /statez = %d: %s", code, rec.Body.String())
	}
	gauge, ok := nodetest.ScrapeGauge(t, mux, `radloc_durable_last_checkpoint_offset{zone="default"}`)
	if !ok {
		t.Fatal("radloc_durable_last_checkpoint_offset not exposed")
	}
	if st.Durability.LastCheckpoint != applied[0] || uint64(gauge) != applied[0] {
		t.Fatalf("after quarantining checkpoint@%d: /statez lastCheckpoint %d, /metrics %v, want both %d",
			applied[1], st.Durability.LastCheckpoint, gauge, applied[0])
	}
}

// zoneDegraded reads a zone's degraded flag the way an operator does:
// from /zones/{zone}/statez.
func zoneDegraded(t *testing.T, mux http.Handler, zoneName string) bool {
	t.Helper()
	rec, code := nodetest.HTTPStatus(mux, http.MethodGet, "http://x/zones/"+zoneName+"/statez", "")
	var st statezJSON
	if code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil {
		t.Fatalf("GET /zones/%s/statez = %d: %s", zoneName, code, rec.Body.String())
	}
	return st.Durability.Degraded
}

// TestStorageChaosStandbyEntersDegradedMode: a standby whose disk
// fills while it replicates enters degraded mode exactly as a primary
// does — replicated records are journaled through the same edge
// detector as client writes — and leaves it on the first pull applied
// after the disk heals.
func TestStorageChaosStandbyEntersDegradedMode(t *testing.T) {
	fab := nodetest.NewFabric()
	routes := cluster.Routes{Zones: map[string]cluster.Route{
		"default": {Primary: "http://a", Standby: "http://b"},
	}}
	faulty := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 5})
	a := newClusterTestNode(t, fab, "a", &routes)
	b := newClusterTestNode(t, fab, "b", &routes, func(c *Config) { c.FS = faulty })
	sc := scenario.A(50, false)
	aBack, bBack := a.backend(t, "default"), b.backend(t, "default")
	caughtUp := func() bool { return bBack.Offset() == aBack.Offset() }

	postRounds(t, a.mux, "http://a", sc, 0, 2)
	nodetest.WaitUntil(t, "standby catch-up", caughtUp)
	if zoneDegraded(t, b.mux, "default") {
		t.Fatal("healthy standby reports degraded storage")
	}

	faulty.FailWrites(syscall.ENOSPC, false)
	postRounds(t, a.mux, "http://a", sc, 2, 3)
	nodetest.WaitUntil(t, "standby to report degraded storage", func() bool {
		return zoneDegraded(t, b.mux, "default")
	})
	if g, ok := nodetest.ScrapeGauge(t, b.mux, `radloc_storage_degraded{zone="default"}`); !ok || g != 1 {
		t.Fatalf("standby radloc_storage_degraded = %v (exposed %v), want 1", g, ok)
	}
	if len(b.zs.scrubTargets()) != 0 {
		t.Fatal("degraded standby is still a scrub target")
	}
	if caughtUp() {
		t.Fatal("standby applied records its disk refused")
	}

	faulty.Heal()
	nodetest.WaitUntil(t, "standby to recover and catch up", func() bool {
		return caughtUp() && !zoneDegraded(t, b.mux, "default")
	})
	if g, _ := nodetest.ScrapeGauge(t, b.mux, `radloc_storage_degraded{zone="default"}`); g != 0 {
		t.Fatalf("recovered standby radloc_storage_degraded = %v, want 0", g)
	}
}

// TestStorageChaosProbeRecoversWithoutWrites: a zone that went
// degraded leaves degraded mode on its own once the disk heals, with
// no organic write to discover the recovery — the background storage
// probe re-tests the WAL and clears /statez, the degraded gauge and
// /readyz.
func TestStorageChaosProbeRecoversWithoutWrites(t *testing.T) {
	faulty := vfs.NewFaulty(nil, vfs.FaultConfig{Seed: 7})
	n := newClusterTestNode(t, nodetest.NewFabric(), "a", nil, func(c *Config) {
		c.FS = faulty
		c.StorageProbe = 5 * time.Millisecond
	})
	postRounds(t, n.mux, "http://a", scenario.A(50, false), 0, 2)
	if rec, code := nodetest.HTTPStatus(n.mux, http.MethodGet, "http://a/readyz", ""); code != http.StatusOK {
		t.Fatalf("healthy /readyz = %d: %s", code, rec.Body.String())
	}

	faulty.FailWrites(syscall.ENOSPC, false)
	if rec, code := nodetest.HTTPStatus(n.mux, http.MethodPost, "http://a/measurements", `{"sensorId":0,"cpm":12}`); code != http.StatusInsufficientStorage {
		t.Fatalf("write on a full disk = %d, want 507: %s", code, rec.Body.String())
	}
	if !zoneDegraded(t, n.mux, "default") {
		t.Fatal("zone not degraded after a refused append")
	}
	faulty.Heal()
	if !zoneDegraded(t, n.mux, "default") {
		t.Fatal("zone left degraded mode with neither a write nor a probe")
	}
	head := n.zs.defaultZone().Snapshot().Journaled

	n.n.Start(context.Background())
	nodetest.WaitUntil(t, "probe to clear degraded mode", func() bool {
		return !zoneDegraded(t, n.mux, "default")
	})
	if g, ok := nodetest.ScrapeGauge(t, n.mux, `radloc_storage_degraded{zone="default"}`); !ok || g != 0 {
		t.Fatalf("radloc_storage_degraded = %v (exposed %v), want 0", g, ok)
	}
	if rec, code := nodetest.HTTPStatus(n.mux, http.MethodGet, "http://a/readyz", ""); code != http.StatusOK {
		t.Fatalf("recovered /readyz = %d: %s", code, rec.Body.String())
	}
	if got := n.zs.defaultZone().Snapshot().Journaled; got != head {
		t.Fatalf("WAL head moved from %d to %d: recovery came from a write, not the probe", head, got)
	}
}
