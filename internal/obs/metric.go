package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotone event count. The zero value is unusable;
// obtain counters from a Registry. All methods are safe for concurrent
// use and lock-free.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Store sets the absolute count — for restoring persisted state
// (checkpoint recovery), never for normal accounting.
func (c *Counter) Store(v uint64) { c.v.Store(v) }

func (c *Counter) metricName() string { return c.name }
func (c *Counter) metricHelp() string { return c.help }
func (c *Counter) metricType() string { return "counter" }

// funcCounter reads its value from a callback at exposition time.
type funcCounter struct {
	name, help string
	mu         sync.Mutex
	fn         func() uint64
}

func (c *funcCounter) value() uint64 {
	c.mu.Lock()
	fn := c.fn
	c.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

func (c *funcCounter) metricName() string { return c.name }
func (c *funcCounter) metricHelp() string { return c.help }
func (c *funcCounter) metricType() string { return "counter" }

// Gauge is a value that can go up and down. The zero value is
// unusable; obtain gauges from a Registry. All methods are safe for
// concurrent use and lock-free.
type Gauge struct {
	name, help string
	bits       atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (negative to subtract) with a CAS loop.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) metricName() string { return g.name }
func (g *Gauge) metricHelp() string { return g.help }
func (g *Gauge) metricType() string { return "gauge" }

// funcGauge reads its value from a callback at exposition time.
type funcGauge struct {
	name, help string
	mu         sync.Mutex
	fn         func() float64
}

func (g *funcGauge) value() float64 {
	g.mu.Lock()
	fn := g.fn
	g.mu.Unlock()
	if fn == nil {
		return 0
	}
	return fn()
}

func (g *funcGauge) metricName() string { return g.name }
func (g *funcGauge) metricHelp() string { return g.help }
func (g *funcGauge) metricType() string { return "gauge" }

// DefBuckets are the default duration buckets: exponential from 1 µs
// to ~8.4 s (doubling), sized for this codebase's hot paths — a filter
// ingest is tens of microseconds, a mean-shift refresh tens of
// milliseconds, a WAL fsync hundreds of microseconds to tens of
// milliseconds.
var DefBuckets = ExpBuckets(1e-6, 2, 24)

// ExpBuckets returns n exponentially spaced bucket bounds starting at
// start and multiplying by factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Histogram is a fixed-bucket histogram of float64 observations
// (durations in seconds, sizes in readings, ...). Observations are
// lock-free atomic adds; quantiles are estimated from the bucket
// counts by linear interpolation, so their error is bounded by the
// bucket width around the quantile. The zero value is unusable;
// obtain histograms from a Registry.
type Histogram struct {
	name, help string
	bounds     []float64       // sorted upper bounds; +Inf bucket implicit
	counts     []atomic.Uint64 // len(bounds)+1
	sumBits    atomic.Uint64   // float64 bits of the observation sum
	count      atomic.Uint64
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("obs: histogram buckets must be sorted ascending")
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound ≥ v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) from the bucket
// counts by linear interpolation inside the containing bucket. It
// returns NaN with no observations. Mass in the +Inf bucket reports
// the highest finite bound — the estimate saturates rather than
// invents a value.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return math.NaN()
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		n := float64(h.counts[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			if i == len(h.bounds) {
				return h.bounds[len(h.bounds)-1] // +Inf bucket: saturate
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			frac := (rank - cum) / n
			if frac < 0 {
				frac = 0
			}
			return lower + frac*(h.bounds[i]-lower)
		}
		cum += n
	}
	return h.bounds[len(h.bounds)-1]
}

// Summary is a histogram digest for reports and logs.
type Summary struct {
	// Count is the number of observations; Sum their total.
	Count uint64
	// Sum is the total of all observed values.
	Sum float64
	// P50, P95 and P99 are interpolated quantile estimates (NaN when
	// Count is 0).
	P50, P95, P99 float64
}

// Summary digests the histogram into count, sum and the standard
// quantiles.
func (h *Histogram) Summary() Summary {
	return Summary{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// bucketCounts returns the cumulative count per bound (Prometheus
// "le" semantics), plus the total.
func (h *Histogram) bucketCounts() (cum []uint64, total uint64) {
	cum = make([]uint64, len(h.bounds))
	var c uint64
	for i := range h.bounds {
		c += h.counts[i].Load()
		cum[i] = c
	}
	total = c + h.counts[len(h.bounds)].Load()
	return cum, total
}

func (h *Histogram) metricName() string { return h.name }
func (h *Histogram) metricHelp() string { return h.help }
func (h *Histogram) metricType() string { return "histogram" }
