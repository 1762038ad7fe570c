package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

// runWorkload drives one localizer through a fixed measurement and
// estimate-refresh schedule and returns its exported state and the
// estimates of the final refresh. Every configuration under test must
// consume the identical schedule: Estimates draws start samples from
// the localizer's RNG stream, so refresh points are part of the
// deterministic trace.
func runWorkload(t *testing.T, cfg Config, steps int) (State, []Estimate) {
	t.Helper()
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sources := []radiation.Source{
		{Pos: geometry.V(30, 60), Strength: 40},
		{Pos: geometry.V(75, 25), Strength: 25},
	}
	sensors := sensor.Grid(bounds100(), 6, 6, sensor.DefaultEfficiency, 5)
	stream := rng.NewNamed(99, "test/ww-measurements")
	var ests []Estimate
	for step := 0; step < steps; step++ {
		for _, sen := range sensors {
			m := sen.Measure(stream, sources, nil, step)
			l.Ingest(sen, m.CPM)
		}
		ests = l.Estimates()
	}
	st, err := l.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	return st, ests
}

// TestExportStateBitIdenticalAcrossWorkerCounts is the tentpole's
// determinism invariant: the worker pools (weighting and mean-shift)
// change wall-clock only, never output. Run the identical workload
// under a sweep of Workers settings and demand byte-for-byte equal
// exported state and equal estimates. Run with -race to also exercise
// the pools' memory discipline.
func TestExportStateBitIdenticalAcrossWorkerCounts(t *testing.T) {
	base := testConfig()
	base.NumParticles = 1500 // > 2 chunks so the pool actually engages

	workers := []int{1, 2, 3, 5, 8, 16}
	var refState []byte
	var refEsts []Estimate
	for i, w := range workers {
		cfg := base
		cfg.Workers = w
		st, ests := runWorkload(t, cfg, 6)
		blob, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			refState, refEsts = blob, ests
			continue
		}
		if !bytes.Equal(blob, refState) {
			t.Errorf("workers=%d: exported state differs from workers=%d", w, workers[0])
		}
		if fmt.Sprint(ests) != fmt.Sprint(refEsts) {
			t.Errorf("workers=%d: estimates differ: %v vs %v", w, ests, refEsts)
		}
	}
}

// TestIngestSteadyStateAllocationFree pins the rewrite's allocation
// contract: once the scratch buffers have grown to the workload, the
// per-reading path (select → predict → weight → resample) allocates
// nothing. Inline weighting is the measured configuration — the pooled
// path necessarily allocates its worker goroutines.
func TestIngestSteadyStateAllocationFree(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sources := []radiation.Source{{Pos: geometry.V(40, 55), Strength: 30}}
	sensors := sensor.Grid(bounds100(), 6, 6, sensor.DefaultEfficiency, 5)
	stream := rng.NewNamed(7, "test/alloc-measurements")

	// Warm up: grow every scratch buffer and converge the population.
	for step := 0; step < 4; step++ {
		for _, sen := range sensors {
			m := sen.Measure(stream, sources, nil, step)
			l.Ingest(sen, m.CPM)
		}
	}

	// Pre-render the measured readings so the closure under
	// AllocsPerRun runs the ingest path and nothing else.
	type reading struct {
		sen sensor.Sensor
		cpm int
	}
	var readings []reading
	for step := 4; step < 10; step++ {
		for _, sen := range sensors {
			m := sen.Measure(stream, sources, nil, step)
			readings = append(readings, reading{sen, m.CPM})
		}
	}
	idx := 0
	allocs := testing.AllocsPerRun(200, func() {
		r := readings[idx%len(readings)]
		idx++
		l.Ingest(r.sen, r.cpm)
	})
	if allocs > 0 {
		t.Errorf("steady-state Ingest allocates %.1f objects per reading, want 0", allocs)
	}
}

// TestMovementFusedMatchesSplit verifies the fused predict+weight path
// (taken when weighting runs inline) produces the same trace as the
// pooled configuration, which must split the RNG-drawing movement pass
// from the parallel weighting: with a movement model installed the two
// code paths differ, but their outputs may not.
func TestMovementFusedMatchesSplit(t *testing.T) {
	base := testConfig()
	base.NumParticles = 1500
	base.Movement = RandomWalk{Sigma: 0.5}

	cfg1 := base
	cfg1.Workers = 1 // fused predict+weight
	st1, _ := runWorkload(t, cfg1, 4)

	cfg2 := base
	cfg2.Workers = 4 // sequential predict, pooled weight
	st2, _ := runWorkload(t, cfg2, 4)

	b1, err := json.Marshal(st1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(st2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Error("fused and split predict+weight paths diverged")
	}
}
