package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// TestGetOrCreate asserts registration is idempotent per name and
// panics on kind mismatch.
func TestGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "other help ignored")
	if a != b {
		t.Fatal("same name should return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter value = %d, want 1", b.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("registering x_total as a gauge should panic")
		}
	}()
	r.Gauge("x_total", "kind mismatch")
}

// TestOr asserts nil gets a fresh, usable registry and anything else
// passes through.
func TestOr(t *testing.T) {
	r := NewRegistry()
	if Or(r) != r {
		t.Fatal("Or(r) should return r")
	}
	a, b := Or(nil), Or(nil)
	if a == nil || a == b {
		t.Fatal("Or(nil) should return a fresh registry each call")
	}
	a.Counter("x_total", "help").Inc()
	if b.Counter("x_total", "help").Value() != 0 {
		t.Fatal("two Or(nil) registries share a counter")
	}
}

// TestConcurrentIncrements hammers one counter, one gauge and one
// histogram from many goroutines; run under -race this is the
// registry's thread-safety proof, and the totals must still be exact.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("radloc_test_events_total", "events")
	g := r.Gauge("radloc_test_level", "level")
	h := r.Histogram("radloc_test_seconds", "latency", []float64{0.001, 0.01, 0.1, 1})
	fam := r.CounterFamily("radloc_test_labeled_total", "labeled", "kind")

	const workers = 16
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.005)
				fam.With("a").Inc()
				if w%2 == 0 {
					fam.With("b").Add(2)
				}
			}
		}(w)
	}
	wg.Wait()

	const n = workers * perWorker
	if got := c.Value(); got != n {
		t.Errorf("counter = %d, want %d", got, n)
	}
	if got := g.Value(); got != n {
		t.Errorf("gauge = %g, want %d", got, n)
	}
	if got := h.Count(); got != n {
		t.Errorf("histogram count = %d, want %d", got, n)
	}
	if got, want := h.Sum(), 0.005*n; math.Abs(got-want) > 1e-9*want {
		t.Errorf("histogram sum = %g, want %g", got, want)
	}
	if got := fam.With("a").Value(); got != n {
		t.Errorf("family[a] = %d, want %d", got, n)
	}
	if got := fam.With("b").Value(); got != workers/2*perWorker*2 {
		t.Errorf("family[b] = %d, want %d", got, workers/2*perWorker*2)
	}
}

// linearBounds returns n bucket bounds start, start+width, ...
func linearBounds(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// TestHistogramQuantiles checks the interpolation: for a uniform
// stream over [0, 100) with bucket width 10, every quantile estimate
// must land within one bucket width of the exact value.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_test", "quantiles", linearBounds(10, 10, 10))
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i%100) + 0.5)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 50}, {0.95, 95}, {0.99, 99}, {0.10, 10},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 10 {
			t.Errorf("Quantile(%g) = %g, want within one bucket of %g", tc.q, got, tc.want)
		}
	}
	if !math.IsNaN(NewRegistry().Histogram("empty", "", nil).Quantile(0.5)) {
		t.Error("quantile of an empty histogram should be NaN")
	}

	// Mass beyond the last finite bound saturates at it.
	h2 := r.Histogram("q_sat", "saturation", []float64{1, 2})
	for i := 0; i < 100; i++ {
		h2.Observe(50)
	}
	if got := h2.Quantile(0.99); got != 2 {
		t.Errorf("overflowed quantile = %g, want saturation at 2", got)
	}
}

// TestSummary digests the quantiles in one call.
func TestSummary(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("s_test", "summary", linearBounds(1, 1, 100))
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i % 100))
	}
	s := h.Summary()
	if s.Count != 1000 {
		t.Errorf("Count = %d, want 1000", s.Count)
	}
	if s.P50 <= 0 || s.P95 < s.P50 || s.P99 < s.P95 {
		t.Errorf("quantiles not monotone: p50=%g p95=%g p99=%g", s.P50, s.P95, s.P99)
	}
}

// TestExpositionGolden locks the text format down byte for byte: a
// registry with one of each kind must render exactly this.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("radloc_demo_events_total", "Events seen.")
	c.Add(42)
	g := r.Gauge("radloc_demo_depth", "Queue depth.")
	g.Set(3.5)
	h := r.Histogram("radloc_demo_seconds", "Latency.", []float64{0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)
	fam := r.CounterFamily("radloc_demo_stage_total", "Per-stage events.", "stage")
	fam.With("resample").Add(7)
	fam.With("predict").Inc()
	hf := r.HistogramFamily("radloc_demo_stage_seconds", "Per-stage latency.", []float64{1}, "stage")
	hf.With("predict").Observe(0.5)

	const want = `# HELP radloc_demo_depth Queue depth.
# TYPE radloc_demo_depth gauge
radloc_demo_depth 3.5
# HELP radloc_demo_events_total Events seen.
# TYPE radloc_demo_events_total counter
radloc_demo_events_total 42
# HELP radloc_demo_seconds Latency.
# TYPE radloc_demo_seconds histogram
radloc_demo_seconds_bucket{le="0.01"} 1
radloc_demo_seconds_bucket{le="0.1"} 2
radloc_demo_seconds_bucket{le="+Inf"} 3
radloc_demo_seconds_sum 5.055
radloc_demo_seconds_count 3
# HELP radloc_demo_stage_seconds Per-stage latency.
# TYPE radloc_demo_stage_seconds histogram
radloc_demo_stage_seconds_bucket{stage="predict",le="1"} 1
radloc_demo_stage_seconds_bucket{stage="predict",le="+Inf"} 1
radloc_demo_stage_seconds_sum{stage="predict"} 0.5
radloc_demo_stage_seconds_count{stage="predict"} 1
# HELP radloc_demo_stage_total Per-stage events.
# TYPE radloc_demo_stage_total counter
radloc_demo_stage_total{stage="predict"} 1
radloc_demo_stage_total{stage="resample"} 7
`
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", b.String(), want)
	}
}

// TestFuncMetrics covers scrape-time callbacks and label escaping.
func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	n := uint64(7)
	r.CounterFunc("fn_total", "callback counter", func() uint64 { return n })
	r.GaugeFunc("fn_gauge", "callback gauge", func() float64 { return 1.25 })
	f := r.GaugeFamily("esc_gauge", "label escaping", "path")
	f.With(`a"b\c` + "\n").Set(1)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"fn_total 7\n",
		"fn_gauge 1.25\n",
		`esc_gauge{path="a\"b\\c\n"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestLabeledView exercises Registry.With: plain registrations on a
// view must land as labeled family children on the root, two views of
// the same name must stay distinct, and exposition from the view must
// render the root's full contents with the view labels attached.
func TestLabeledView(t *testing.T) {
	r := NewRegistry()
	east := r.With("zone", "east")
	west := r.With("zone", "west")

	ce := east.Counter("radloc_view_ingested_total", "per-zone ingest")
	cw := west.Counter("radloc_view_ingested_total", "per-zone ingest")
	if ce == cw {
		t.Fatal("distinct zones must get distinct counters")
	}
	ce.Add(3)
	cw.Add(5)
	// Re-registration through the view returns the same child.
	if again := east.Counter("radloc_view_ingested_total", "per-zone ingest"); again != ce {
		t.Fatal("view registration should be get-or-create")
	}

	east.Gauge("radloc_view_depth", "mailbox depth").Set(7)
	east.Histogram("radloc_view_seconds", "latency", []float64{0.1, 1}).Observe(0.05)
	east.GaugeFunc("radloc_view_uptime", "uptime", func() float64 { return 42 })
	east.CounterFunc("radloc_view_ticks_total", "ticks", func() uint64 { return 9 })

	// A family obtained through a view prepends the view labels.
	sf := east.HistogramFamily("radloc_view_stage_seconds", "stage timing", []float64{0.1, 1}, "stage")
	sf.With("select").Observe(0.2)

	var b strings.Builder
	if err := east.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		`radloc_view_ingested_total{zone="east"} 3`,
		`radloc_view_ingested_total{zone="west"} 5`,
		`radloc_view_depth{zone="east"} 7`,
		`radloc_view_seconds_count{zone="east"} 1`,
		`radloc_view_uptime{zone="east"} 42`,
		`radloc_view_ticks_total{zone="east"} 9`,
		`radloc_view_stage_seconds_count{zone="east",stage="select"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
}

// TestViewChaining asserts With composes: a view of a view carries
// both label pairs in order.
func TestViewChaining(t *testing.T) {
	r := NewRegistry()
	c := r.With("region", "eu").With("zone", "a").Counter("radloc_chain_total", "chained")
	c.Inc()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if want := `radloc_chain_total{region="eu",zone="a"} 1`; !strings.Contains(b.String(), want) {
		t.Fatalf("missing %q in\n%s", want, b.String())
	}
}
