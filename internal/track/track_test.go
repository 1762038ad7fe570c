package track

import (
	"testing"

	"radloc/internal/core"
	"radloc/internal/geometry"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

func est(x, y, s float64) core.Estimate {
	return core.Estimate{Pos: geometry.V(x, y), Strength: s, Mass: 0.2}
}

func TestTrackConfirmation(t *testing.T) {
	m := NewManager(Config{})
	for step := 0; step < 3; step++ {
		m.Update(step, []core.Estimate{est(50, 50, 20)})
		if step < 2 && len(m.Confirmed()) != 0 {
			t.Fatalf("confirmed before %d hits", step+1)
		}
	}
	conf := m.Confirmed()
	if len(conf) != 1 {
		t.Fatalf("confirmed = %d, want 1", len(conf))
	}
	if conf[0].Hits != 3 || !conf[0].Confirmed {
		t.Errorf("track = %+v", conf[0])
	}
	if conf[0].Pos.Dist(geometry.V(50, 50)) > 1e-9 {
		t.Errorf("stationary track drifted: %v", conf[0].Pos)
	}
}

func TestSpuriousFlickerSuppressed(t *testing.T) {
	m := NewManager(Config{})
	// A stable source plus a one-step spurious mode.
	m.Update(0, []core.Estimate{est(50, 50, 20), est(10, 90, 5)})
	for step := 1; step < 6; step++ {
		m.Update(step, []core.Estimate{est(50, 50, 20)})
	}
	conf := m.Confirmed()
	if len(conf) != 1 {
		t.Fatalf("confirmed = %v, want only the stable source", conf)
	}
	if conf[0].Pos.Dist(geometry.V(50, 50)) > 1 {
		t.Errorf("wrong track confirmed: %v", conf[0])
	}
	// The spurious track must be gone entirely after DropMisses steps.
	for _, tr := range m.ExportState().Tracks {
		if tr.Pos.Dist(geometry.V(10, 90)) < 5 {
			t.Errorf("spurious track still alive: %v", tr)
		}
	}
}

func TestTrackSurvivesBriefDropout(t *testing.T) {
	m := NewManager(Config{})
	for step := 0; step < 4; step++ {
		m.Update(step, []core.Estimate{est(30, 30, 10)})
	}
	// Two missed steps (fewer than DropMisses=4): track must survive.
	m.Update(4, nil)
	m.Update(5, nil)
	if len(m.Confirmed()) != 1 {
		t.Fatal("track dropped during brief dropout")
	}
	m.Update(6, []core.Estimate{est(30, 30, 10)})
	conf := m.Confirmed()
	if len(conf) != 1 || conf[0].Misses != 0 {
		t.Errorf("track did not recover: %+v", conf)
	}
	// Four consecutive misses retire it.
	for step := 7; step < 11; step++ {
		m.Update(step, nil)
	}
	if len(m.ExportState().Tracks) != 0 {
		t.Errorf("track not retired: %v", m.ExportState().Tracks)
	}
}

func TestTrackFollowsMovingEstimate(t *testing.T) {
	m := NewManager(Config{Alpha: 0.6})
	pos := geometry.V(20, 20)
	var id int
	for step := 0; step < 12; step++ {
		m.Update(step, []core.Estimate{{Pos: pos, Strength: 10, Mass: 0.2}})
		if step == 0 {
			id = m.ExportState().Tracks[0].ID
		}
		pos = pos.Add(geometry.V(2, 1))
	}
	conf := m.Confirmed()
	if len(conf) != 1 {
		t.Fatalf("confirmed = %d", len(conf))
	}
	if conf[0].ID != id {
		t.Errorf("track identity changed while moving: %d vs %d", conf[0].ID, id)
	}
	// The smoothed position lags but stays within a couple of steps.
	if conf[0].Pos.Dist(pos) > 10 {
		t.Errorf("track lost the moving estimate: %v vs %v", conf[0].Pos, pos)
	}
}

func TestTwoSourcesKeepSeparateTracks(t *testing.T) {
	m := NewManager(Config{})
	for step := 0; step < 5; step++ {
		m.Update(step, []core.Estimate{est(47, 71, 50), est(81, 42, 50)})
	}
	conf := m.Confirmed()
	if len(conf) != 2 {
		t.Fatalf("confirmed = %d, want 2", len(conf))
	}
	if conf[0].ID == conf[1].ID {
		t.Error("duplicate track IDs")
	}
	tr, ok := nearestConfirmed(m, geometry.V(80, 40))
	if !ok || tr.Pos.Dist(geometry.V(81, 42)) > 1 {
		t.Errorf("nearest confirmed = %v, %v", tr, ok)
	}
}

// nearestConfirmed returns the confirmed track closest to p, or ok =
// false when there is none.
func nearestConfirmed(m *Manager, p geometry.Vec) (Track, bool) {
	var best Track
	found := false
	for _, tr := range m.Confirmed() {
		if !found || tr.Pos.Dist(p) < best.Pos.Dist(p) {
			best, found = tr, true
		}
	}
	return best, found
}

func TestGateRadiusSeparatesCloseEstimates(t *testing.T) {
	m := NewManager(Config{GateRadius: 5})
	m.Update(0, []core.Estimate{est(50, 50, 10)})
	// An estimate 8 away exceeds the gate: becomes a new track.
	m.Update(1, []core.Estimate{est(58, 50, 10)})
	if n := len(m.ExportState().Tracks); n != 2 {
		t.Errorf("tracks = %d, want 2 (gate violation)", n)
	}
}

// TestEndToEndWithLocalizer runs tracks over a real localizer's noisy
// estimate stream: confirmed tracks must settle on exactly the two true
// sources even though raw estimates include flickering FPs.
func TestEndToEndWithLocalizer(t *testing.T) {
	loc, err := core.NewLocalizer(core.Config{
		Bounds:  geometry.NewRect(geometry.V(0, 0), geometry.V(100, 100)),
		Seed:    4,
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{})
	truth := []geometry.Vec{geometry.V(47, 71), geometry.V(81, 42)}

	bounds := geometry.NewRect(geometry.V(0, 0), geometry.V(100, 100))
	sensors := sensor.Grid(bounds, 6, 6, sensor.DefaultEfficiency, 5)
	stream := rng.NewNamed(4, "track/e2e")
	for step := 0; step < 12; step++ {
		for _, sn := range sensors {
			lambda := sn.Background
			for _, src := range truth {
				lambda += 2.22e6 * sn.Efficiency * 50 / (1 + sn.Pos.Dist2(src))
			}
			loc.Ingest(sn, stream.Poisson(lambda))
		}
		m.Update(step, loc.Estimates())
	}

	conf := m.Confirmed()
	matched := 0
	for _, want := range truth {
		if tr, ok := nearestConfirmed(m, want); ok && tr.Pos.Dist(want) < 6 {
			matched++
		}
	}
	if matched != 2 {
		t.Errorf("confirmed tracks %v do not cover both sources", conf)
	}
	// Long-lived confirmed tracks should be at most the two sources
	// plus possibly one persistent ambiguity.
	longLived := 0
	for _, tr := range conf {
		if tr.Hits >= 8 {
			longLived++
		}
	}
	if longLived > 3 {
		t.Errorf("%d long-lived tracks, want ≤ 3: %v", longLived, conf)
	}
}
