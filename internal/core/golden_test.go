package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash"
	"math"
	"testing"

	"radloc/internal/core"
	"radloc/internal/fusion"
	"radloc/internal/rng"
	"radloc/internal/scenario"
)

// goldenDigests pins the localizer's complete output on two seeded
// scenarios: every exported state and every estimate, bit for bit.
// The filter's performance work must not move a single bit of it; a
// change that does so on purpose records the new digests here and
// says why.
var goldenDigests = map[string]string{
	"A": "0cf8ac9ce9d22b5588db9f1daa5e90b948e9c77534f13f028a7581b14b58c03d",
	"C": "f2349b8eaa039d3a6279cb6ccaaf5a7bdcbfde3faa08a39c6d533021d638fe6f",
}

// TestLocalizerGoldenDigest drives seeded Scenario A and Scenario C
// localizers through a few hundred in-order readings with an estimate
// refresh after every sensor round, then imports a state that carries
// a zero-weight particle outside the bounds (and so outside the
// positive-weight particles' bounding box) and keeps going. It hashes
// every Estimates result and every ExportState encoding along the way.
func TestLocalizerGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name          string
		sc            scenario.Scenario
		rounds, after int
	}{
		{"A", scenario.A(50, false), 8, 2},
		{"C", scenario.C(true, 1), 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := goldenDigest(t, tc.sc, tc.rounds, tc.after)
			if want := goldenDigests[tc.name]; got != want {
				t.Errorf("scenario %s digest = %s, want %s", tc.name, got, want)
			}
		})
	}
}

// goldenDigest runs the digest workload on sc: rounds sensor rounds,
// the zero-weight import, then after more rounds.
func goldenDigest(t *testing.T, sc scenario.Scenario, rounds, after int) string {
	t.Helper()
	cfg := fusion.LocalizerConfig(sc)
	cfg.Seed = 17
	cfg.Workers = 2
	l, err := core.NewLocalizer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	stream := rng.NewNamed(23, "test/golden-measurements")
	step := 0
	run := func(n int) {
		for ; n > 0; n-- {
			for _, sen := range sc.Sensors {
				l.Ingest(sen, sen.Measure(stream, sc.Sources, sc.Obstacles, step).CPM)
			}
			hashEstimates(h, l.Estimates())
			step++
		}
	}
	run(rounds)
	st := hashState(t, h, l)

	// The last particle loses its weight and moves out past the lower
	// corner, where no positive-weight particle can be (they stay in
	// bounds): were it to span the mean-shift cell grid, every cell
	// boundary would shift.
	last := len(st.Ws) - 1
	st.Xs[last], st.Ys[last] = sc.Bounds.Min.X-10, sc.Bounds.Min.Y-10
	st.Ws[last] = 0
	if l, err = core.NewLocalizer(cfg); err != nil {
		t.Fatal(err)
	}
	if err := l.ImportState(st); err != nil {
		t.Fatal(err)
	}
	hashEstimates(h, l.Estimates())
	run(after)
	hashState(t, h, l)
	return hex.EncodeToString(h.Sum(nil))
}

// hashEstimates writes every field of ests, floats by their bits.
func hashEstimates(h hash.Hash, ests []core.Estimate) {
	var buf []byte
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(ests)))
	for _, e := range ests {
		for _, v := range [4]float64{e.Pos.X, e.Pos.Y, e.Strength, e.Mass} {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Starts))
	}
	h.Write(buf)
}

// hashState writes l's exported state as its JSON encoding (which
// round-trips every float exactly) and returns the state.
func hashState(t *testing.T, h hash.Hash, l *core.Localizer) core.State {
	t.Helper()
	st, err := l.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(blob)
	return st
}
