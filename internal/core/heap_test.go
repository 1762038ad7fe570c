package core_test

import (
	"runtime"
	"testing"

	"radloc/internal/core"
	"radloc/internal/fusion"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/stat"
)

// heapBudgetPerParticle bounds the live heap of a warmed localizer, in
// bytes per particle. It measures 46.5 (Go 1.24, linux/amd64): the
// state arrays (x, y and strength) take 24 and the weight-class index 4
// (the class table itself holds a handful of entries), the grid's slot
// index 4, its slab of id chunks about 7 (4 per item and room for one
// partial chunk per cell), and the per-reading scratch about 4 (32
// bytes per particle of the largest subset, with geometric slack); the
// remaining 4 or so is smaller fixed structures. The mean-shift search
// keeps nothing between refreshes. One more copy of the population, 4
// or 8 bytes a particle, fails the test, and so does grid storage that
// keeps each cell's peak occupancy over the warm-up.
const heapBudgetPerParticle = 50

// warmRounds is the number of sensor rounds the localizer ingests
// before the measurement: enough that memory which follows the history
// of the particles, not their current state, shows.
const warmRounds = 40

// TestLocalizerHeapBudget measures the live heap a warmed Scenario C
// localizer (15,000 particles, a refresh every sensor round) holds
// after a forced collection and bounds it per particle. Its log line
// ("... bytes per particle") is the figure the docs quote.
func TestLocalizerHeapBudget(t *testing.T) {
	sc := scenario.C(true, 1)
	cfg := fusion.LocalizerConfig(sc)
	cfg.Seed = 5
	stream := rng.NewNamed(29, "test/heap-measurements")

	// The log-factorial table is process-wide and built on first use;
	// build it before measuring.
	stat.LogFactorial(0)
	var before, after runtime.MemStats
	settle(&before)
	l, err := core.NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < warmRounds; step++ {
		for _, sen := range sc.Sensors {
			l.Ingest(sen, sen.Measure(stream, sc.Sources, sc.Obstacles, step).CPM)
		}
		l.Estimates()
	}
	settle(&after)
	runtime.KeepAlive(l)

	n := cfg.NumParticles
	perParticle := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	t.Logf("warmed %d-particle localizer: %.1f live heap bytes per particle", n, perParticle)
	if perParticle > heapBudgetPerParticle {
		t.Errorf("warmed localizer holds %.1f bytes per particle, budget %d", perParticle, heapBudgetPerParticle)
	}
}

// settle collects garbage and reads the memory statistics into ms. The
// second collection frees what sync.Pool caches (JSON encoders, say)
// kept alive through the first.
func settle(ms *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(ms)
}
