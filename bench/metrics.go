package main

import (
	"encoding/json"
	"math"
	"strings"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// MarshalJSON writes a value without samples (NaN) as 0: JSON has no
// NaN, and the text output already shows it.
func (m metric) MarshalJSON() ([]byte, error) {
	type plain metric
	return json.Marshal(plain{Value: finite(m.Value), Unit: m.Unit})
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome tallies the window's operations: write attempts (a retried
// batch counts every attempt), reads, and scheduled requests abandoned
// at the hard stop.
type outcome struct {
	attempted, failed int
	readings          int // readings acknowledged by a 2xx
	lastAck           time.Duration
}

func (r *passResult) outcome() outcome {
	var o outcome
	okBatches := 0
	for _, w := range r.d.writes {
		if w.err == nil {
			okBatches++
			o.readings += w.readings
		}
		if w.end > o.lastAck {
			o.lastAck = w.end
		}
	}
	o.attempted = int(r.attempts) + len(r.d.reads) + r.d.abandoned
	o.failed = int(r.attempts) - okBatches + r.d.abandoned
	for _, rd := range r.d.reads {
		if rd.err != nil {
			o.failed++
		}
	}
	return o
}

// latencies returns the acknowledgement, read and staleness samples of
// the window's successful requests, in milliseconds. A read's
// staleness is its age at completion of the newest round the zone has
// journaled (and so folded into the served estimate, within one
// refresh), counted from the send of that round's first reading.
func (r *passResult) latencies(sensors int) (ack, read, stale []float64) {
	created := make([]map[uint64]time.Duration, len(r.d.sends))
	for z := range r.d.sends {
		created[z] = map[uint64]time.Duration{}
	}
	for _, w := range r.d.writes {
		if w.err != nil {
			continue
		}
		for _, rd := range r.d.sends[w.zone][w.batch].readings {
			if t, ok := created[w.zone][rd.Seq]; rd.Seq > r.warmSeq[w.zone] && (!ok || w.due < t) {
				created[w.zone][rd.Seq] = w.due
			}
		}
	}
	var ackD, readD, staleD []time.Duration
	for _, w := range r.d.writes {
		if w.err == nil {
			ackD = append(ackD, latency(w.due, w.ready, w.start, w.end))
		}
	}
	for _, rd := range r.d.reads {
		if rd.err != nil {
			continue
		}
		readD = append(readD, latency(rd.due, rd.ready, rd.start, rd.end))
		// Rounds are released whole, so the journal holds a whole number
		// of them give or take a few stragglers still in flight or
		// applied late: round to the nearest.
		round := r.bootRound[rd.zone] + (rd.journaled-r.bootJournaled[rd.zone]+uint64(sensors)/2)/uint64(sensors)
		if t, ok := created[rd.zone][round]; ok {
			staleD = append(staleD, rd.end-t)
		}
	}
	return ms(ackD), ms(readD), ms(staleD)
}

// mib is the heap above the harness's own share, in MiB.
func mib(heap, base uint64) float64 { return float64(heap-min(base, heap)) / (1 << 20) }

// endToEnd computes what a user of the node sees. setup_s and heap_mb
// are the gated end-to-end metrics. The e2e.* timings and counts are
// the same numbers for throughput, latency and staleness; they are
// printed on every run but not gated, because they follow the host's
// CPU speed (see README). bench.gen_late_ms.p90 is the load generator's
// own lateness, which decides whether an open-loop run is valid.
func (r *passResult) endToEnd(sensors int) metricSet {
	m := metricSet{}
	o := r.outcome()
	ack, read, stale := r.latencies(sensors)
	m.set("setup_s", quantile(r.setup, 0.5), "s")
	m.set("heap_mb", mib(r.heapRetained, r.heapBase), "MiB")
	m.set("e2e.peak_heap_mb", mib(r.heapPeak, r.heapBase), "MiB")
	m.set("e2e.readings_per_s", float64(o.readings)/o.lastAck.Seconds(), "readings/s")
	m.set("e2e.ack_p50_ms", quantile(ack, 0.5), "ms")
	m.set("e2e.ack_p90_ms", quantile(ack, 0.9), "ms")
	m.set("e2e.ack_p99_ms", quantile(ack, 0.99), "ms")
	m.set("e2e.ack_samples", float64(len(ack)), "count")
	m.set("e2e.read_p50_ms", quantile(read, 0.5), "ms")
	m.set("e2e.read_p90_ms", quantile(read, 0.9), "ms")
	m.set("e2e.read_p99_ms", quantile(read, 0.99), "ms")
	m.set("e2e.read_samples", float64(len(read)), "count")
	m.set("e2e.stale_p50_ms", quantile(stale, 0.5), "ms")
	m.set("e2e.stale_p90_ms", quantile(stale, 0.9), "ms")
	m.set("e2e.failed_frac", float64(o.failed)/float64(o.attempted), "ratio")
	m.set("bench.gen_late_ms.p90", quantile(ms(r.d.late), 0.9), "ms")
	return m
}

// stage names the filter stages' histogram series.
func stage(name string) string { return `stage="` + name + `"` }

// layers computes the per-layer metrics of a traced pass. The
// write-path decomposition: a write's serve time (the wrapper's span)
// is the HTTP layer's own time plus httpingest's request time; inside
// that, the zone loop's measured parts are the WAL appends, the filter
// stages, the estimate refreshes and the checkpoints. What the request
// time holds beyond those (body decoding, the mailbox hop, the gate's
// and the health monitor's bookkeeping) is unattributed.
func (r *passResult) layers() metricSet {
	m := metricSet{}
	b, a := r.before, r.after
	o := r.outcome()
	spans := r.tr.between(r.windowNs[0], r.windowNs[1])
	link(spans)

	durs := map[string][]time.Duration{}
	var walBytes, syncs int
	byID := map[uint64]span{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.dur())
		byID[s.ID] = s
		if s.Name == "wal.write" {
			walBytes += s.Bytes
		}
		if strings.HasSuffix(s.Name, ".fsync") {
			syncs++
		}
	}
	var wire []time.Duration
	for _, s := range spans {
		if s.Name == "http.serve" {
			if p, ok := byID[s.Parent]; ok {
				wire = append(wire, p.dur()-s.dur())
			}
		}
	}
	q := func(name string, qq float64, unit time.Duration) float64 {
		xs := durs[name]
		f := make([]float64, len(xs))
		for i, d := range xs {
			f[i] = float64(d) / float64(unit)
		}
		return quantile(f, qq)
	}
	readings := float64(o.readings)
	batches := float64(len(durs["transport.send"]))

	m.set("transport.send_ms.p50", q("transport.send", 0.5, time.Millisecond), "ms")
	m.set("transport.send_ms.p90", q("transport.send", 0.9, time.Millisecond), "ms")
	m.set("transport.attempts_per_batch", float64(r.attempts)/batches, "ratio")

	m.set("http.write_serve_ms.p50", q("http.serve", 0.5, time.Millisecond), "ms")
	m.set("http.write_serve_ms.p90", q("http.serve", 0.9, time.Millisecond), "ms")
	m.set("http.wire_ms.p50", quantile(ms(wire), 0.5), "ms")

	m.set("httpingest.request_ms.p50", 1e3*histQuantile(b, a, 0.5, "radloc_ingest_request_seconds"), "ms")
	m.set("httpingest.inflight_max", float64(r.fs.maxIn.Load()), "count")
	m.set("httpingest.shed_429", sum(b, a, "radloc_ingest_shed_429_total"), "count")

	m.set("node.read_serve_ms.p50", q("node.read", 0.5, time.Millisecond), "ms")
	m.set("node.read_serve_ms.p90", q("node.read", 0.9, time.Millisecond), "ms")
	m.set("node.checkpoint_ms.p50", 1e3*histQuantile(b, a, 0.5, "radloc_durable_checkpoint_seconds"), "ms")
	m.set("node.checkpoints", sum(b, a, "radloc_durable_checkpoints_total"), "count")
	m.set("node.recovery_replayed", float64(r.replayed), "count")
	m.set("zone.mailbox_full", sum(b, a, "radloc_zone_mailbox_full_total"), "count")

	m.set("fusion.refresh_ms.p50", 1e3*histQuantile(b, a, 0.5, "radloc_fusion_refresh_seconds"), "ms")
	m.set("fusion.refresh_ms.p90", 1e3*histQuantile(b, a, 0.9, "radloc_fusion_refresh_seconds"), "ms")
	m.set("fusion.gate_pending_max", r.pendingMax, "count")
	m.set("fusion.gate_late", sum(b, a, "radloc_transport_late_total"), "count")
	m.set("fusion.rejected", sum(b, a, "radloc_fusion_rejected_total"), "count")

	iters := sum(b, a, "radloc_filter_iterations_total")
	stageSum := func(s string) float64 { return sum(b, a, "radloc_filter_stage_seconds_sum", stage(s)) }
	m.set("spatial.select_us_per_reading", 1e6*stageSum("select")/iters, "us")
	m.set("core.predict_us_per_reading", 1e6*stageSum("predict")/iters, "us")
	m.set("core.weight_us_per_reading", 1e6*stageSum("weight")/iters, "us")
	m.set("core.resample_us_per_reading", 1e6*stageSum("resample")/iters, "us")
	m.set("meanshift.estimate_ms_per_refresh", 1e3*stageSum("estimate")/sum(b, a, "radloc_fusion_refreshes_total"), "ms")

	m.set("wal.write_us.p50", q("wal.write", 0.5, time.Microsecond), "us")
	m.set("wal.fsync_us.p50", q("wal.fsync", 0.5, time.Microsecond), "us")
	m.set("wal.fsync_us.p90", q("wal.fsync", 0.9, time.Microsecond), "us")
	journaled := sum(b, a, "radloc_wal_appends_total")
	m.set("wal.fsyncs_per_reading", float64(syncs)/journaled, "ratio")
	m.set("wal.bytes_per_reading", float64(walBytes)/journaled, "bytes")
	m.set("wal.replay_s", sum(scrape{}, b, "radloc_wal_replay_seconds_sum"), "s") // since the boot

	cpu := (r.cpu1 - r.cpu0).Seconds()
	m.set("runtime.cpu_ms_per_kreading", 1e3*cpu/(readings/1e3), "ms")
	m.set("runtime.alloc_kb_per_reading", float64(r.rt1[0].Value.Uint64()-r.rt0[0].Value.Uint64())/1024/readings, "KiB")
	gc := r.rt1[1].Value.Float64() - r.rt0[1].Value.Float64()
	total := r.rt1[2].Value.Float64() - r.rt0[2].Value.Float64()
	m.set("runtime.gc_cpu_frac", gc/total, "ratio")

	var serve time.Duration
	for _, d := range durs["http.serve"] {
		serve += d
	}
	serveS := serve.Seconds()
	ingest := sum(b, a, "radloc_ingest_request_seconds_sum")
	zoneLoop := sum(b, a, "radloc_wal_append_seconds_sum") +
		sum(b, a, "radloc_durable_checkpoint_seconds_sum") +
		sum(b, a, "radloc_fusion_refresh_seconds_sum") +
		stageSum("select") + stageSum("predict") + stageSum("weight") + stageSum("resample")
	attributed := (serveS - ingest) + zoneLoop
	m.set("node.unattributed_us_per_reading", 1e6*(serveS-attributed)/readings, "us")
	m.set("bench.accounted_frac", attributed/serveS, "ratio")
	return m
}

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
