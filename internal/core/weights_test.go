package core

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

// checkClasses fails the test unless l's weight-class table is
// consistent: every particle's class is live, each count matches the
// particles in its class, the live count matches, no two live classes
// share a weight, and each class's log is its weight's.
func checkClasses(t *testing.T, l *Localizer) {
	t.Helper()
	tbl := &l.wts
	counts := make([]int32, len(tbl.w))
	for _, c := range tbl.cls {
		counts[c]++
	}
	live := 0
	seen := map[uint64]bool{}
	for c, r := range tbl.refs {
		if r != counts[c] {
			t.Fatalf("class %d counts %d particles, holds %d", c, r, counts[c])
		}
		if r == 0 {
			continue
		}
		live++
		bits := math.Float64bits(tbl.w[c])
		if seen[bits] {
			t.Fatalf("weight %v has two live classes", tbl.w[c])
		}
		seen[bits] = true
		if lw := logOf(tbl.w[c]); math.Float64bits(lw) != math.Float64bits(tbl.lw[c]) {
			t.Fatalf("class %d: log weight %v, want %v", c, tbl.lw[c], lw)
		}
	}
	if live != tbl.live {
		t.Fatalf("%d live classes, table says %d", live, tbl.live)
	}
}

// distinctWeights returns l's state with every particle given its own
// weight, the weights summing to one.
func distinctWeights(t *testing.T, l *Localizer) State {
	t.Helper()
	st := exportState(t, l)
	n := len(st.Ws)
	sum := 0.0
	for i := range st.Ws {
		st.Ws[i] = 1 + float64(i)/float64(n)
		sum += st.Ws[i]
	}
	for i := range st.Ws {
		st.Ws[i] /= sum
	}
	return st
}

// TestWeightClassesCompactAfterDistinctImport imports a state whose
// particles all carry distinct weights — one class each — and ingests
// steadily. The selective update folds resampled subsets into shared
// classes, and the table must shrink with them to O(live classes), not
// stay as long as the imported spike.
func TestWeightClassesCompactAfterDistinctImport(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := cfg.withDefaults().NumParticles
	if err := l.ImportState(distinctWeights(t, l)); err != nil {
		t.Fatal(err)
	}
	if l.wts.live != n || len(l.wts.w) != n {
		t.Fatalf("imported %d distinct weights into %d live classes, table %d", n, l.wts.live, len(l.wts.w))
	}
	checkClasses(t, l)

	sources := []radiation.Source{{Pos: geometry.V(30, 60), Strength: 50}}
	sensors := sensor.Grid(bounds100(), 6, 6, sensor.DefaultEfficiency, 5)
	stream := rng.NewNamed(8, "test/class-compaction")
	for step := 0; step < 10; step++ {
		for _, sen := range sensors {
			l.Ingest(sen, sen.Measure(stream, sources, nil, step).CPM)
			checkClasses(t, l)
		}
	}
	live, size := l.wts.live, len(l.wts.w)
	t.Logf("after 10 rounds: %d live classes, table of %d (capacity %d)", live, size, cap(l.wts.w))
	if live >= n/4 {
		t.Fatalf("%d of %d imported classes still live after 10 rounds: the test cannot tell compaction apart", live, n)
	}
	if size > 3*live+compactSlack || cap(l.wts.w) > 3*live+compactSlack {
		t.Errorf("table holds %d classes (capacity %d) for %d live ones", size, cap(l.wts.w), live)
	}
}

// TestExportImportExportByteIdentical: a state exported, imported into
// a fresh localizer and exported again encodes to the same bytes, both
// for a run's state and for one whose every weight is distinct.
func TestExportImportExportByteIdentical(t *testing.T) {
	cfg := stateTestConfig()
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sources := []radiation.Source{{Pos: geometry.V(30, 60), Strength: 50}}
	stream := rng.NewNamed(4, "test/export-import")
	for step := 0; step < 6; step++ {
		for _, sen := range stateTestSensors() {
			l.Ingest(sen, sen.Measure(stream, sources, nil, step).CPM)
		}
	}
	for name, st := range map[string]State{"run": exportState(t, l), "distinct": distinctWeights(t, l)} {
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewLocalizer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.ImportState(st); err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(exportState(t, fresh))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: export → import → export changed the encoding", name)
		}
	}
}

// TestMovingGridMatchesBruteForce: with a movement model the filter
// moves particles before weighting them, and the spatial index finds a
// particle's cell from the position it is filed at, so every move must
// re-file the particle. After every Ingest, while the index is live, a
// fusion-range query around each sensor must return exactly the
// particles a scan of every position finds.
func TestMovingGridMatchesBruteForce(t *testing.T) {
	cfg := testConfig()
	cfg.Movement = RandomWalk{Sigma: 2}
	l, err := NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := cfg.withDefaults().FusionRange
	sensors := sensor.Grid(bounds100(), 6, 6, sensor.DefaultEfficiency, 5)
	stream := rng.NewNamed(21, "test/moving-grid")
	pos := geometry.V(20, 30)
	checked := 0
	var got, want []int32
	for step := 0; step < 12; step++ {
		truth := []radiation.Source{{Pos: pos, Strength: 100}}
		for _, sen := range sensors {
			l.Ingest(sen, sen.Measure(stream, truth, nil, step).CPM)
			if !l.gridLive() {
				continue // rebuilt from the positions at the next selection
			}
			checked++
			for _, q := range sensors {
				got = l.grid.WithinRadiusSorted(q.Pos, r, l.xs, l.ys, got[:0])
				want = want[:0]
				for i := range l.xs {
					if geometry.V(l.xs[i], l.ys[i]).Dist2(q.Pos) <= r*r {
						want = append(want, int32(i))
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("step %d, sensor %d: grid finds %d particles near %v, a scan %d",
						step, sen.ID, len(got), q.Pos, len(want))
				}
			}
		}
		pos = pos.Add(geometry.V(1.5, 1))
	}
	t.Logf("%d live-index checks", checked)
	if checked < 12*len(sensors)/2 {
		t.Fatalf("index live after only %d of %d readings", checked, 12*len(sensors))
	}
}
