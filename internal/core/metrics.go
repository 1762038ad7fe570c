package core

import (
	"time"

	"radloc/internal/obs"
)

// filterMetrics is the localizer's registry wiring: one histogram per
// filter stage plus population-health gauges. A nil *filterMetrics is
// the "instrumentation off" state — every method is nil-receiver safe
// so the hot path pays a single branch, no timer reads.
type filterMetrics struct {
	selectH, weightH, resampleH, estimateH *obs.Histogram

	iterations *obs.Counter
	empty      *obs.Counter
	ess        *obs.Gauge
	subset     *obs.Gauge
	particles  *obs.Gauge
}

// FilterStages lists the stage labels of the
// radloc_filter_stage_seconds histogram family in pipeline order:
// select (fusion-range particle selection, Eq. 5), weight (movement
// model and Poisson reweighting), resample (systematic resampling +
// injection), estimate (mean-shift mode recovery).
var FilterStages = []string{"select", "weight", "resample", "estimate"}

// StageHistogram returns the named stage's timing histogram on r,
// registering the family if it is not there yet. Registration is
// get-or-create, so tools reading a registry a Localizer recorded
// into (e.g. `radloc bench`) get the same collectors the filter
// observed into.
func StageHistogram(r *obs.Registry, stage string) *obs.Histogram {
	f := r.HistogramFamily("radloc_filter_stage_seconds",
		"Wall-clock seconds per filter stage, per measurement ingest (select = fusion-range particle selection, weight = movement model + Poisson reweighting, resample = systematic resampling + injection, estimate = mean-shift mode recovery).",
		obs.DefBuckets, "stage")
	return f.With(stage)
}

// newFilterMetrics registers the filter families on r (nil r → nil
// metrics, instrumentation off).
func newFilterMetrics(r *obs.Registry) *filterMetrics {
	if r == nil {
		return nil
	}
	return &filterMetrics{
		selectH:   StageHistogram(r, "select"),
		weightH:   StageHistogram(r, "weight"),
		resampleH: StageHistogram(r, "resample"),
		estimateH: StageHistogram(r, "estimate"),
		iterations: r.Counter("radloc_filter_iterations_total",
			"Measurements ingested by the particle filter."),
		empty: r.Counter("radloc_filter_empty_subset_total",
			"Ingests whose fusion disc captured no particles (Eq. 5 returned the null set)."),
		ess: r.Gauge("radloc_filter_effective_sample_size",
			"Kish effective sample size of the particle weights at the last estimate refresh."),
		subset: r.Gauge("radloc_filter_last_subset_size",
			"Particles captured by the most recent fusion disc."),
		particles: r.Gauge("radloc_filter_particles",
			"Particle population size."),
	}
}

// now starts a stage timer; the zero time when instrumentation is off.
func (m *filterMetrics) now() time.Time {
	if m == nil {
		return time.Time{}
	}
	return time.Now()
}

// lap records the elapsed stage time into h and restarts the timer.
func (m *filterMetrics) lap(h *obs.Histogram, t0 time.Time) time.Time {
	if m == nil {
		return t0
	}
	now := time.Now()
	h.Observe(now.Sub(t0).Seconds())
	return now
}

// ingest counts one filter iteration and its subset size.
func (m *filterMetrics) ingest(subset int) {
	if m == nil {
		return
	}
	m.iterations.Inc()
	m.subset.Set(float64(subset))
	if subset == 0 {
		m.empty.Inc()
	}
}

// estimated records population health at an estimate refresh.
func (m *filterMetrics) estimated(ess float64, particles int, t0 time.Time) {
	if m == nil {
		return
	}
	m.estimateH.Observe(time.Since(t0).Seconds())
	m.ess.Set(ess)
	m.particles.Set(float64(particles))
}
