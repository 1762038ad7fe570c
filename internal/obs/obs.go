// Package obs is the project's dependency-free observability layer: a
// concurrency-safe metrics registry of atomic counters, gauges and
// fixed-bucket histograms (with labeled families of each), plus
// Prometheus text-format exposition.
//
// Every long-running component takes a *Registry in its options; the
// daemon builds one Registry per process, threads it through the
// filter, the fusion engine, the HTTP ingest boundary and the WAL,
// and serves the whole thing on GET /metrics. Components built without
// a registry get a private one (Or), so tests stay isolated and
// libraries stay dependency-free. The filter core alone treats a nil
// registry as instrumentation off (core.Config.Metrics).
//
// Naming follows the Prometheus convention specialized to this
// project: radloc_<subsystem>_<name>_<unit>, where unit is "seconds"
// for histograms of durations, "total" for monotone counters, and a
// bare noun for gauges. The full family reference lives in the README
// ("Monitoring radlocd") and DESIGN.md §8.
//
// Registration is get-or-create: asking twice for the same name
// returns the same collector, so a component rebuilt mid-process (the
// daemon's checkpoint-discard path builds its engine twice) reuses its
// counters instead of colliding. Asking for the same name as a
// different metric kind panics — that is a programming error, not a
// runtime condition.
package obs

import (
	"fmt"
	"sort"
	"sync"
)

// metric is one registered collector; expose.go renders each kind.
type metric interface {
	metricName() string
	metricHelp() string
	metricType() string // counter | gauge | histogram
}

// Registry holds named metrics and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry. All methods
// are safe for concurrent use.
//
// A Registry obtained from With is a labeled *view*: registrations on
// it land on the root registry as labeled families carrying the view's
// preset label values, so a component written against plain Counter/
// Gauge/Histogram calls gains labels (e.g. zone="east") without
// changing a line. Exposition always renders the root's full contents.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
	names   []string // registration order; sorted at exposition

	// View state: non-nil base marks this Registry as a labeled view of
	// base, with labelNames/labelValues preset on every registration.
	base        *Registry
	labelNames  []string
	labelValues []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// Or returns r, or a fresh private registry when r is nil — the
// one-line default for every Metrics option outside the filter core,
// so a component built without a registry still counts.
func Or(r *Registry) *Registry {
	if r == nil {
		return NewRegistry()
	}
	return r
}

// With returns a labeled view of the registry: every collector
// registered through the view becomes a child of a labeled family on
// the root registry, carrying label=value (plus any labels already
// preset on r, so views chain). Components that take a *Registry can
// therefore be instantiated once per shard/zone, each landing on the
// same families distinguished by label — the multi-zone daemon builds
// each zone's engine on reg.With("zone", name).
func (r *Registry) With(label, value string) *Registry {
	root := r
	var names, values []string
	if r.base != nil {
		root = r.base
		names = append(names, r.labelNames...)
		values = append(values, r.labelValues...)
	}
	return &Registry{
		base:        root,
		labelNames:  append(names, label),
		labelValues: append(values, value),
	}
}

// lookup returns the existing metric under name after checking its
// kind, or registers the one built by mk. Kind mismatches panic:
// reusing a metric name for a different type is a programming error.
func (r *Registry) lookup(name, kind string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.metricType() != kind {
			panic(fmt.Sprintf("obs: %q already registered as a %s, not a %s", name, m.metricType(), kind))
		}
		return m
	}
	m := mk()
	r.metrics[name] = m
	r.names = append(r.names, name)
	return m
}

// Counter returns the counter registered under name, creating it on
// first use. On a labeled view it is the view-labeled child of a
// counter family on the root.
func (r *Registry) Counter(name, help string) *Counter {
	if r.base != nil {
		return r.base.CounterFamily(name, help, r.labelNames...).With(r.labelValues...)
	}
	return r.lookup(name, "counter", func() metric {
		return &Counter{name: name, help: help}
	}).(*Counter)
}

// Gauge returns the gauge registered under name, creating it on first
// use. On a labeled view it is the view-labeled child of a gauge
// family on the root.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r.base != nil {
		return r.base.GaugeFamily(name, help, r.labelNames...).With(r.labelValues...)
	}
	return r.lookup(name, "gauge", func() metric {
		return &Gauge{name: name, help: help}
	}).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at
// exposition time — for values another component already tracks
// (queue depths, uptime, runtime stats). fn must be safe to call from
// any goroutine. Re-registering the same name replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	var m metric
	if r.base != nil {
		f := r.base.GaugeFamily(name, help, r.labelNames...)
		m = f.child(r.labelValues, func() metric { return &funcGauge{name: name, help: help} })
	} else {
		m = r.lookup(name, "gauge", func() metric {
			return &funcGauge{name: name, help: help}
		})
	}
	fg, ok := m.(*funcGauge)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as a plain gauge, not a gauge func", name))
	}
	fg.mu.Lock()
	fg.fn = fn
	fg.mu.Unlock()
}

// CounterFunc registers a counter whose value is read from fn at
// exposition time — for monotone values another component already
// tracks (e.g. the circuit breaker's trip count). fn must be safe to
// call from any goroutine and must never decrease. Re-registering the
// same name replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	var m metric
	if r.base != nil {
		f := r.base.CounterFamily(name, help, r.labelNames...)
		m = f.child(r.labelValues, func() metric { return &funcCounter{name: name, help: help} })
	} else {
		m = r.lookup(name, "counter", func() metric {
			return &funcCounter{name: name, help: help}
		})
	}
	fc, ok := m.(*funcCounter)
	if !ok {
		panic(fmt.Sprintf("obs: %q already registered as a plain counter, not a counter func", name))
	}
	fc.mu.Lock()
	fc.fn = fn
	fc.mu.Unlock()
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds on first use (a final +Inf bucket
// is implicit; pass nil for DefBuckets). Buckets must be sorted
// ascending. On a labeled view it is the view-labeled child of a
// histogram family on the root.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r.base != nil {
		return r.base.HistogramFamily(name, help, buckets, r.labelNames...).With(r.labelValues...)
	}
	return r.lookup(name, "histogram", func() metric {
		return newHistogram(name, help, buckets)
	}).(*Histogram)
}

// CounterFamily returns the labeled counter family registered under
// name, creating it on first use with the given label names. On a
// labeled view the view's labels are prepended to the family's and
// With supplies only the trailing (family-local) values.
func (r *Registry) CounterFamily(name, help string, labels ...string) *CounterFamily {
	if r.base != nil {
		f := r.base.CounterFamily(name, help, append(append([]string{}, r.labelNames...), labels...)...)
		return &CounterFamily{family: f.family, bound: r.labelValues}
	}
	return r.lookup(name, "counter", func() metric {
		return &CounterFamily{family: newFamily(name, help, labels)}
	}).(*CounterFamily)
}

// GaugeFamily returns the labeled gauge family registered under name,
// creating it on first use with the given label names. Views prepend
// their labels as for CounterFamily.
func (r *Registry) GaugeFamily(name, help string, labels ...string) *GaugeFamily {
	if r.base != nil {
		f := r.base.GaugeFamily(name, help, append(append([]string{}, r.labelNames...), labels...)...)
		return &GaugeFamily{family: f.family, bound: r.labelValues}
	}
	return r.lookup(name, "gauge", func() metric {
		return &GaugeFamily{family: newFamily(name, help, labels)}
	}).(*GaugeFamily)
}

// HistogramFamily returns the labeled histogram family registered
// under name, creating it on first use with the given buckets and
// label names. Views prepend their labels as for CounterFamily.
func (r *Registry) HistogramFamily(name, help string, buckets []float64, labels ...string) *HistogramFamily {
	if r.base != nil {
		f := r.base.HistogramFamily(name, help, buckets, append(append([]string{}, r.labelNames...), labels...)...)
		return &HistogramFamily{family: f.family, buckets: f.buckets, bound: r.labelValues}
	}
	return r.lookup(name, "histogram", func() metric {
		return &HistogramFamily{family: newFamily(name, help, labels), buckets: buckets}
	}).(*HistogramFamily)
}

// snapshot returns the registered metrics sorted by name. A view
// snapshots its root: exposition always covers the whole process.
func (r *Registry) snapshot() []metric {
	if r.base != nil {
		return r.base.snapshot()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string(nil), r.names...)
	sort.Strings(names)
	out := make([]metric, 0, len(names))
	for _, n := range names {
		out = append(out, r.metrics[n])
	}
	return out
}
