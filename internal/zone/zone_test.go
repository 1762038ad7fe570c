package zone

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/obs"
	"radloc/internal/rng"
	"radloc/internal/scenario"
)

// testEngine builds a small, deterministic engine for zone tests;
// seed varies per zone so cross-zone state can never accidentally
// match.
func testEngine(t testing.TB, seed uint64) *fusion.Engine {
	t.Helper()
	return testEngineWith(t, seed, nil)
}

// testEngineWith is testEngine with a write-ahead journal.
func testEngineWith(t testing.TB, seed uint64, j fusion.Journal) *fusion.Engine {
	t.Helper()
	sc := scenario.A(50, false)
	cfg := fusion.ScenarioConfig(sc, seed)
	cfg.ReorderWindow = 2
	cfg.Journal = j
	cfg.Localizer.NumParticles = 300
	e, err := fusion.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// stream renders a sequenced Scenario-A measurement stream, shuffled
// deterministically by shuffleSeed (0 = in order).
func stream(t testing.TB, steps int, seed, shuffleSeed uint64) []fusion.Meas {
	t.Helper()
	sc := scenario.A(50, false)
	src := rng.NewNamed(seed, "zone-test/measure")
	var out []fusion.Meas
	for step := 0; step < steps; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(src, sc.Sources, nil, step)
			out = append(out, fusion.Meas{SensorID: sen.ID, CPM: m.CPM, Step: step, Seq: uint64(step + 1)})
		}
	}
	if shuffleSeed != 0 {
		sh := rng.NewNamed(shuffleSeed, "zone-test/shuffle")
		for i := len(out) - 1; i > 0; i-- {
			j := sh.IntN(i + 1)
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

func seedFor(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h | 1
}

func testManager(t testing.TB, opts Options) *Manager {
	t.Helper()
	if opts.Factory == nil {
		opts.Factory = func(name string) (Resources, error) {
			return Resources{Engine: testEngine(t, seedFor(name))}, nil
		}
	}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m
}

func TestValidateName(t *testing.T) {
	good := []string{"default", "a", "zone-7", "a_b-c", "0east"}
	for _, n := range good {
		if err := ValidateName(n); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", n, err)
		}
	}
	bad := []string{"", "UPPER", "has.dot", "a/b", "-lead", "_lead", "white space",
		"x123456789012345678901234567890123456789012345678901234567890123456789"}
	for _, n := range bad {
		if err := ValidateName(n); !errors.Is(err, ErrBadName) {
			t.Errorf("ValidateName(%q) = %v, want ErrBadName", n, err)
		}
	}
}

func TestGetLazyLookupAndLimit(t *testing.T) {
	var builds atomic.Int64
	m := testManager(t, Options{
		MaxZones: 2,
		Factory: func(name string) (Resources, error) {
			builds.Add(1)
			return Resources{Engine: testEngine(t, seedFor(name))}, nil
		},
	})
	if _, ok := m.Lookup("east"); ok {
		t.Fatal("Lookup conjured a zone into being")
	}
	z, err := m.Get("east")
	if err != nil {
		t.Fatal(err)
	}
	if z2, err := m.Get("east"); err != nil || z2 != z {
		t.Fatalf("second Get = (%v, %v), want the same zone", z2, err)
	}
	if got := builds.Load(); got != 1 {
		t.Fatalf("factory ran %d times for one zone", got)
	}
	if _, err := m.Get("west"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get("north"); !errors.Is(err, ErrZoneLimit) {
		t.Fatalf("Get over cap = %v, want ErrZoneLimit", err)
	}
	if _, err := m.Get("Bad Name"); !errors.Is(err, ErrBadName) {
		t.Fatalf("Get bad name = %v, want ErrBadName", err)
	}
	if names := m.Names(); len(names) != 2 || names[0] != "east" || names[1] != "west" {
		t.Fatalf("Names = %v", names)
	}
}

func TestSubmitOutcomeCounts(t *testing.T) {
	m := testManager(t, Options{})
	ms := stream(t, 3, 1, 0)
	batch := append([]fusion.Meas(nil), ms[:10]...)
	batch = append(batch, ms[3])                                       // duplicate
	batch = append(batch, fusion.Meas{SensorID: 9999, CPM: 5, Seq: 1}) // spoofed
	res, err := m.Submit(context.Background(), "east", batch)
	if err != nil {
		t.Fatal(err)
	}
	want := fusion.BatchResult{Accepted: 10, Duplicate: 1, Rejected: 1}
	if res != want {
		t.Fatalf("Submit result = %+v, want %+v", res, want)
	}
}

// TestSubmitWaitsForMailboxSpace wedges the event loop and fills the
// mailbox. A Submit whose deadline passes while it waits for space
// returns context.DeadlineExceeded and its batch is never applied; a
// Submit without a deadline waits and completes once the loop is
// released.
func TestSubmitWaitsForMailboxSpace(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	unwedge := sync.OnceFunc(func() { close(release) })
	defer unwedge() // a failed check must not leave the loop wedged
	m := testManager(t, Options{
		Factory: func(name string) (Resources, error) {
			return Resources{
				Engine: testEngine(t, 7),
				AfterBatch: func() {
					select {
					case entered <- struct{}{}:
					default:
					}
					<-release
				},
			}, nil
		},
	})
	z, err := m.Get("slow")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ms := unsequenced(stream(t, 1, 1, 0))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := z.Submit(ctx, ms[:1]); err != nil {
			t.Error(err)
		}
	}()
	<-entered // the event loop is wedged inside AfterBatch

	noop := func(*fusion.Engine) error { return nil }
	for i := 0; i < mailboxDepth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := z.Do(ctx, noop); err != nil {
				t.Error(err)
			}
		}()
	}
	for len(z.mail) < mailboxDepth {
		time.Sleep(time.Millisecond)
	}

	short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	if _, err := z.Submit(short, ms[1:2]); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Submit on a full mailbox = %v, want context.DeadlineExceeded", err)
	}

	waited := make(chan error, 1)
	go func() {
		_, err := z.Submit(ctx, ms[2:3])
		waited <- err
	}()
	unwedge()
	if err := <-waited; err != nil {
		t.Fatalf("Submit without a deadline = %v, want nil", err)
	}
	wg.Wait()
	// The wedged batch and the waiting one were applied; the batch that
	// timed out before admission was not.
	if got := z.Snapshot().Ingested; got != 2 {
		t.Fatalf("ingested %d, want 2", got)
	}
}

func TestSweepIdleEvictsWithFinalClose(t *testing.T) {
	var builds, closes atomic.Int64
	m := testManager(t, Options{
		IdleAfter: time.Millisecond,
		Factory: func(name string) (Resources, error) {
			builds.Add(1)
			return Resources{
				Engine: testEngine(t, seedFor(name)),
				Close:  func() error { closes.Add(1); return nil },
			}, nil
		},
	})
	ctx := context.Background()
	ms := stream(t, 1, 1, 0)
	for _, name := range []string{DefaultZone, "east"} {
		if _, err := m.Submit(ctx, name, ms); err != nil {
			t.Fatal(err)
		}
	}
	future := time.Now().Add(time.Hour)
	if got := m.SweepIdle(future); len(got) != 1 || got[0] != "east" {
		t.Fatalf("SweepIdle = %v, want [east] (default zone is never evicted)", got)
	}
	if closes.Load() != 1 {
		t.Fatalf("Close hooks run = %d, want 1", closes.Load())
	}
	if _, ok := m.Lookup("east"); ok {
		t.Fatal("evicted zone still live")
	}
	if _, ok := m.Lookup(DefaultZone); !ok {
		t.Fatal("default zone was evicted")
	}
	// A late measurement recreates the zone cleanly.
	if _, err := m.Submit(ctx, "east", ms); err != nil {
		t.Fatalf("submit after eviction: %v", err)
	}
	if builds.Load() != 3 {
		t.Fatalf("factory ran %d times, want 3 (default, east, recreated east)", builds.Load())
	}
}

func TestEvictionRacingLateMeasurement(t *testing.T) {
	var closes atomic.Int64
	m := testManager(t, Options{
		IdleAfter: time.Nanosecond,
		Factory: func(name string) (Resources, error) {
			return Resources{
				Engine: testEngine(t, seedFor(name)),
				Close:  func() error { closes.Add(1); return nil },
			}, nil
		},
	})
	ctx := context.Background()
	ms := stream(t, 2, 3, 0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("race-%d", w%2)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.Submit(ctx, name, ms[i%len(ms):i%len(ms)+1]); err != nil {
					t.Errorf("Submit during eviction churn: %v", err)
					return
				}
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		m.SweepIdle(time.Now().Add(time.Hour))
	}
	close(stop)
	wg.Wait()
	if closes.Load() == 0 {
		t.Fatal("eviction never fired during the churn")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestManagerCloseRefusesWork(t *testing.T) {
	m := testManager(t, Options{})
	if _, err := m.Get("east"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := m.Get("east"); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("Get after Close = %v, want ErrManagerClosed", err)
	}
	if _, err := m.Submit(context.Background(), "east", nil); !errors.Is(err, ErrManagerClosed) {
		t.Fatalf("Submit after Close = %v, want ErrManagerClosed", err)
	}
}

// TestZonesMatchIndependentEngines is the shard-equivalence
// invariant: N zones fed N per-zone streams through the manager
// (concurrently, with interleaved snapshot readers) end in exactly
// the state of N independent engines fed the same streams directly —
// byte-identical exported state, RNG cursors included.
func TestZonesMatchIndependentEngines(t *testing.T) {
	const zones = 16
	m := testManager(t, Options{MaxZones: zones})
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < zones; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("z%02d", i)
			ms := stream(t, 4, uint64(i+1), uint64(1000+i))
			for off := 0; off < len(ms); off += 7 {
				end := off + 7
				if end > len(ms) {
					end = len(ms)
				}
				if _, err := m.Submit(ctx, name, ms[off:end]); err != nil {
					t.Errorf("zone %s: %v", name, err)
					return
				}
				if off%21 == 0 { // interleave reads with writes
					_ = mustZone(t, m, name).Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()

	for i := 0; i < zones; i++ {
		name := fmt.Sprintf("z%02d", i)
		ref := testEngine(t, seedFor(name))
		ms := stream(t, 4, uint64(i+1), uint64(1000+i))
		if _, err := ref.Submit(ctx, ms); err != nil {
			t.Fatal(err)
		}
		got := zoneExportState(t, mustZone(t, m, name))
		want, err := exportState(ref)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("zone %s diverged from an independent engine fed the same stream", name)
		}
	}
}

func mustZone(t *testing.T, m *Manager, name string) *Zone {
	t.Helper()
	z, ok := m.Lookup(name)
	if !ok {
		t.Fatalf("zone %s not live", name)
	}
	return z
}

func exportState(e *fusion.Engine) (string, error) {
	st, err := e.ExportState()
	if err != nil {
		return "", err
	}
	b, err := fusion.EncodeState(st)
	return string(b), err
}

// zoneExportState exports a zone's engine state on its event loop.
func zoneExportState(t *testing.T, z *Zone) string {
	t.Helper()
	var out string
	err := z.Do(context.Background(), func(e *fusion.Engine) (err error) {
		out, err = exportState(e)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestManagerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := testManager(t, Options{Metrics: reg, IdleAfter: time.Millisecond})
	if _, err := m.Submit(context.Background(), "east", stream(t, 1, 1, 0)); err != nil {
		t.Fatal(err)
	}
	m.SweepIdle(time.Now().Add(time.Hour))
	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"radloc_zone_created_total 1",
		"radloc_zone_evicted_total 1",
		"radloc_zone_active 0",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, buf.String())
		}
	}
}
