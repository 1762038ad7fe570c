package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
	"radloc/internal/spatial"
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

// TestExportStateBitIdenticalAcrossWorkerCounts is the determinism
// invariant of the mean-shift worker pool: it changes wall-clock only,
// never output. Run the identical workload under a sweep of Workers
// settings, for a static filter and a moving one (whose movement model
// draws from the filter's RNG stream), and demand byte-for-byte equal
// exported state and equal estimates. Run with -race to also exercise
// the pool's memory discipline.
func TestExportStateBitIdenticalAcrossWorkerCounts(t *testing.T) {
	base := testConfig()
	base.NumParticles = 1500 // subsets span several weighting chunks

	for _, tc := range []struct {
		name     string
		movement MovementModel
	}{
		{"static", nil},
		{"RandomWalk", RandomWalk{Sigma: 0.5}},
	} {
		workers := []int{1, 2, 3, 5, 8, 16}
		var refState []byte
		var refEsts []Estimate
		for i, w := range workers {
			cfg := base
			cfg.Movement = tc.movement
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
				t.Errorf("%s, workers=%d: exported state differs from workers=%d", tc.name, w, workers[0])
			}
			if fmt.Sprint(ests) != fmt.Sprint(refEsts) {
				t.Errorf("%s, workers=%d: estimates differ: %v vs %v", tc.name, w, ests, refEsts)
			}
		}
	}
}

// TestIngestSteadyStateAllocationFree pins the rewrite's allocation
// contract: once the scratch buffers have grown to the workload, the
// per-reading path (select → weight → resample) allocates
// nothing, at any Workers setting: Ingest starts no goroutine.
//
// The count covers more than a thousand readings, and it must be
// exactly 0: testing.AllocsPerRun divides with truncation, so it reads
// one allocation every few readings (say, a periodic re-slice of the
// spatial index) as none. It is taken from the memory profile sampling
// every allocation, and counts those made with Ingest on the stack: the
// process-wide malloc total also counts the runtime's own background
// allocations (the scavenger's timer heap, say), so it would depend on
// the runtime's timing.
// The readings move particles between grid cells, which the test
// checks, so the index's incremental path is part of what is measured.
func TestIngestSteadyStateAllocationFree(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cfg := testConfig()
			cfg.Workers = workers
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

			// Pre-render the measured readings so the measured loop runs the
			// ingest path and nothing else.
			type reading struct {
				sen sensor.Sensor
				cpm int
			}
			var readings []reading
			for step := 4; step < 34; step++ {
				for _, sen := range sensors {
					m := sen.Measure(stream, sources, nil, step)
					readings = append(readings, reading{sen, m.CPM})
				}
			}
			cells := spatial.NewCells(l.cfg.Bounds, l.cfg.FusionRange/2)
			cellsBefore := make([]int, len(l.xs))
			for i := range l.xs {
				cellsBefore[i] = cells.Index(geometry.V(l.xs[i], l.ys[i]))
			}

			before := ingestAllocs()
			for _, r := range readings {
				l.Ingest(r.sen, r.cpm)
			}
			allocs := ingestAllocs() - before

			moved := 0
			for i := range l.xs {
				if cells.Index(geometry.V(l.xs[i], l.ys[i])) != cellsBefore[i] {
					moved++
				}
			}
			if moved == 0 {
				t.Fatal("no particle changed grid cell over the measured readings")
			}
			if allocs != 0 {
				t.Errorf("steady-state Ingest made %d heap allocations over %d readings, want 0", allocs, len(readings))
			}
		})
	}
}

// ingestAllocs returns the number of heap objects allocated so far with
// (*Localizer).Ingest on the stack, as the memory profile records them.
// It is exact only while runtime.MemProfileRate is 1.
func ingestAllocs() int64 {
	// The profile lags the most recently completed collection by up to
	// one cycle; two collections publish every allocation made before.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	var total int64
	for i := range recs {
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			if f.Function == "radloc/internal/core.(*Localizer).Ingest" {
				total += recs[i].AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}
