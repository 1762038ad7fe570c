package fusion

import (
	"errors"
	"reflect"
	"testing"

	"radloc/internal/core"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/track"
)

func testEngine(t *testing.T, withTracking bool) (*Engine, scenario.Scenario) {
	t.Helper()
	sc := scenario.A(50, false)
	cfg := ScenarioConfig(sc, 5)
	cfg.Localizer.Workers = 2
	if withTracking {
		cfg.Tracking = &track.Config{}
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e, sc
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Error("no sensors accepted")
	}
	sc := scenario.A(50, false)
	dup := ScenarioConfig(sc, 0)
	dup.Sensors = append(dup.Sensors, dup.Sensors[0])
	if _, err := NewEngine(dup); err == nil {
		t.Error("duplicate sensor IDs accepted")
	}
	bad := Config{Localizer: core.Config{}, Sensors: sc.Sensors}
	if _, err := NewEngine(bad); err == nil {
		t.Error("invalid localizer config accepted")
	}
}

func TestIngestValidation(t *testing.T) {
	e, _ := testEngine(t, false)
	if _, err := e.IngestSeq(Meas{SensorID: 999, CPM: 5}); !errors.Is(err, ErrUnknownSensor) {
		t.Errorf("unknown sensor: %v", err)
	}
	if _, err := e.IngestSeq(Meas{SensorID: 0, CPM: -1}); !errors.Is(err, ErrBadMeasurement) {
		t.Errorf("negative CPM: %v", err)
	}
	snap := e.Snapshot()
	if snap.Rejected != 2 || snap.Ingested != 0 {
		t.Errorf("counters: %+v", snap)
	}
}

func TestEngineLocalizesEndToEnd(t *testing.T) {
	e, sc := testEngine(t, false)
	stream := rng.NewNamed(5, "fusion/measure")
	for step := 0; step < 6; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			if _, err := e.IngestSeq(Meas{SensorID: sen.ID, CPM: m.CPM}); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := e.Snapshot()
	if snap.Ingested != uint64(6*len(sc.Sensors)) {
		t.Errorf("ingested = %d", snap.Ingested)
	}
	if len(snap.Estimates) == 0 {
		t.Fatal("no estimates after six sensor rounds")
	}
	for _, src := range sc.Sources {
		best := 1e18
		for _, est := range snap.Estimates {
			if d := est.Pos.Dist(src.Pos); d < best {
				best = d
			}
		}
		if best > 8 {
			t.Errorf("source %v estimate error %v", src.Pos, best)
		}
	}
	if snap.Tracks != nil {
		t.Error("tracks present without tracking enabled")
	}
}

func TestEngineTracking(t *testing.T) {
	e, sc := testEngine(t, true)
	stream := rng.NewNamed(6, "fusion/measure")
	for step := 0; step < 8; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			if _, err := e.IngestSeq(Meas{SensorID: sen.ID, CPM: m.CPM}); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := e.Snapshot()
	if len(snap.Tracks) < 2 {
		t.Fatalf("confirmed tracks = %d, want ≥ 2", len(snap.Tracks))
	}
	for _, src := range sc.Sources {
		best := 1e18
		for _, tr := range snap.Tracks {
			if d := tr.Pos.Dist(src.Pos); d < best {
				best = d
			}
		}
		if best > 8 {
			t.Errorf("no confirmed track near source %v (best %v)", src.Pos, best)
		}
	}
}

func TestRefreshForcesEstimates(t *testing.T) {
	e, sc := testEngine(t, false)
	stream := rng.NewNamed(7, "fusion/measure")
	// Fewer measurements than EstimateEvery: no estimates yet.
	for i := 0; i < 10; i++ {
		sen := sc.Sensors[i]
		m := sen.Measure(stream, sc.Sources, nil, 0)
		if _, err := e.IngestSeq(Meas{SensorID: sen.ID, CPM: m.CPM}); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.Snapshot().Estimates) != 0 {
		t.Fatal("estimates computed before the configured interval")
	}
	e.Refresh()
	// After an explicit refresh there may be estimates (possibly empty
	// if mass is still uniform, but the call must be safe). Just check
	// the snapshot path.
	_ = e.Snapshot()
}

// TestEngineShuffledDeliveryFindsSources is the paper's out-of-order
// robustness on a fixed schedule: 6 sequence-stamped steps, shuffled by
// a seeded stream within the reorder window, must leave the engine
// exactly where in-order delivery does, with both sources found.
// (Measurement stream 8 localizes only one source in 6 steps even in
// order; stream 9 localizes both.)
func TestEngineShuffledDeliveryFindsSources(t *testing.T) {
	inOrder, sc := testEngine(t, true)
	shuffled, _ := testEngine(t, true)
	stream := rng.NewNamed(9, "fusion/measure")
	var msgs []Meas
	for step := 0; step < 6; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			msgs = append(msgs, Meas{SensorID: sen.ID, CPM: m.CPM, Step: step, Seq: uint64(step + 1)})
		}
	}
	deliver := func(e *Engine, msgs []Meas) Snapshot {
		for _, m := range msgs {
			if _, err := e.IngestSeq(m); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.FlushPending(); err != nil {
			t.Fatal(err)
		}
		e.Refresh()
		return e.Snapshot()
	}
	want := deliver(inOrder, msgs)

	// Displace each reading by less than one round: well inside the
	// default 4-round window.
	msgs = append([]Meas(nil), msgs...)
	shuffle := rng.NewNamed(8, "fusion/shuffle")
	for i := range msgs {
		if j := i + shuffle.IntN(len(sc.Sensors)); j < len(msgs) {
			msgs[i], msgs[j] = msgs[j], msgs[i]
		}
	}
	snap := deliver(shuffled, msgs)
	if snap.Delivery.OutOfOrder == 0 {
		t.Error("shuffle produced no out-of-order arrivals")
	}
	if !reflect.DeepEqual(comparable(want), comparable(snap)) {
		t.Fatalf("shuffled delivery diverged from in-order delivery:\nin order %+v\nshuffled %+v", want, snap)
	}
	if snap.Ingested != uint64(len(msgs)) {
		t.Errorf("ingested = %d, want %d", snap.Ingested, len(msgs))
	}
	found := 0
	for _, src := range sc.Sources {
		for _, est := range snap.Estimates {
			if est.Pos.Dist(src.Pos) < 10 {
				found++
				break
			}
		}
	}
	if found != 2 {
		t.Errorf("found %d/2 sources under shuffled delivery: %v", found, snap.Estimates)
	}
}

// TestSensorsCount pins the sensor count /healthz and /stats report:
// one health record per registered sensor in the snapshot.
func TestSensorsCount(t *testing.T) {
	e, sc := testEngine(t, false)
	if n := len(e.Snapshot().Health); n != len(sc.Sensors) {
		t.Errorf("snapshot health records = %d, want %d sensors", n, len(sc.Sensors))
	}
}
