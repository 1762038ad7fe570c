package node

// Observability integration test: a durable daemon takes a chaos-era
// delivery workload (fault-injected transport, redelivery, an agent
// restart), then GET /metrics must render valid Prometheus text whose
// counters agree with the JSON the same process serves on /statez —
// the two surfaces derive from one registry, so any disagreement is a
// wiring bug, not a race.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"radloc/internal/clock"
	"radloc/internal/fusion"
	"radloc/internal/netchaos"
	"radloc/internal/obs"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/transport"
	"radloc/internal/wal"
)

// promSample is one parsed exposition line.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promDump is a parsed /metrics response.
type promDump struct {
	types   map[string]string // family → counter|gauge|histogram
	helps   map[string]bool
	samples []promSample
}

// parseProm is a strict minimal parser for the Prometheus text
// format: every non-comment line must be `name[{labels}] value`,
// every sample must belong to a family declared with # TYPE, and
// every family must carry # HELP.
func parseProm(t *testing.T, body string) *promDump {
	t.Helper()
	d := &promDump{types: map[string]string{}, helps: map[string]bool{}}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			f := strings.Fields(line)
			if len(f) < 4 {
				t.Fatalf("HELP line without text: %q", line)
			}
			d.helps[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			d.types[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parsePromSample(line)
		if err != nil {
			t.Fatalf("%v in line %q", err, line)
		}
		d.samples = append(d.samples, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// Every sample maps to a declared family with help text.
	for _, s := range d.samples {
		fam := s.name
		if typ, ok := d.types[fam]; ok {
			if typ == "histogram" {
				t.Errorf("bare sample %q for histogram family", s.name)
			}
		} else {
			base, suffix := splitHistogramSuffix(s.name)
			if base == "" || d.types[base] != "histogram" {
				t.Errorf("sample %q has no # TYPE declaration", s.name)
				continue
			}
			fam = base
			if suffix == "bucket" && s.labels["le"] == "" {
				t.Errorf("histogram bucket without le label: %q", s.name)
			}
		}
		if !d.helps[fam] {
			t.Errorf("family %q has no # HELP", fam)
		}
	}
	return d
}

// splitHistogramSuffix maps name_bucket/_sum/_count to its family.
func splitHistogramSuffix(name string) (base, suffix string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suf) {
			return strings.TrimSuffix(name, suf), suf[1:]
		}
	}
	return "", ""
}

// parsePromSample parses `name[{k="v",...}] value`.
func parsePromSample(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value separator")
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set")
		}
		for _, pair := range splitLabels(rest[1:end]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return s, fmt.Errorf("malformed label %q", pair)
			}
			s.labels[k] = strings.NewReplacer(`\"`, `"`, `\\`, `\`, `\n`, "\n").Replace(v[1 : len(v)-1])
		}
		rest = rest[end+1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
	if err != nil {
		return s, fmt.Errorf("unparseable value: %v", err)
	}
	s.value = v
	return s, nil
}

// splitLabels splits on commas outside quotes.
func splitLabels(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// value returns the single sample with this exact name and labels
// (nil labels → any sample with the name, which must be unique).
func (d *promDump) value(t *testing.T, name string, labels map[string]string) float64 {
	t.Helper()
	var found []float64
	for _, s := range d.samples {
		if s.name != name {
			continue
		}
		if labels != nil {
			match := true
			for k, v := range labels {
				if s.labels[k] != v {
					match = false
				}
			}
			if !match {
				continue
			}
		}
		found = append(found, s.value)
	}
	if len(found) != 1 {
		t.Fatalf("want exactly one sample %s%v, got %d", name, labels, len(found))
	}
	return found[0]
}

// TestMetricsEndpointAgreesWithStatez runs a fault-injected delivery
// workload against a durable daemon sharing one registry, then checks
// that /metrics (a) parses as Prometheus text with counter, gauge and
// histogram families from the filter, ingest, transport-gate and WAL
// subsystems, and (b) numerically agrees with /statez.
func TestMetricsEndpointAgreesWithStatez(t *testing.T) {
	sc := scenario.A(50, false)
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg, time.Unix(1_700_000_000, 0))
	walRoot := t.TempDir()
	cfg := Config{
		Scenario: sc, Seed: 3, ReorderWindow: 2,
		WALDir: walRoot, Fsync: wal.FsyncNever, CheckpointEvery: 50,
		HTTPQueue: 256, Metrics: reg,
	}
	n := bootNode(t, cfg)
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	ing := n.ingest

	// Chaos-era delivery: seeded request/response drops and a healed
	// partition manufacture retries and dedup-absorbed redelivery.
	faults := netchaos.New(localRT{ing}, netchaos.Config{
		Seed:         99,
		Clock:        clk,
		DropProb:     0.3,
		RespDropProb: 0.15,
		Latency:      20 * time.Millisecond,
		Partitions:   []netchaos.Window{{From: time.Second, To: 4 * time.Second}},
	})
	client, err := transport.NewClient(transport.Options{
		URL:       "http://fusion",
		HTTP:      faults,
		Clock:     clk,
		RNG:       rng.NewNamed(7, "metrics/agent"),
		BatchSize: chaosBatch,
		Backoff:   transport.Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, m := range chaosReadings(len(sc.Sensors)) {
		if err := client.Send(ctx, []transport.Reading{m}); err != nil {
			t.Fatal(err)
		}
	}
	def := n.zs.defaultZone()
	if err := def.Do(ctx, (*fusion.Engine).Settle); err != nil {
		t.Fatal(err)
	}
	if err := def.Do(ctx, func(*fusion.Engine) error { return zoneDurable(def).checkpoint() }); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(n.Handler())
	defer srv.Close()

	body := httpGetBody(t, srv.URL+"/metrics", "text/plain")
	dump := parseProm(t, body)

	// One family of each kind from each instrumented subsystem.
	wantTypes := map[string]string{
		"radloc_filter_stage_seconds":              "histogram",
		"radloc_filter_iterations_total":           "counter",
		"radloc_filter_particles":                  "gauge",
		"radloc_fusion_ingested_total":             "counter",
		"radloc_fusion_refresh_seconds":            "histogram",
		"radloc_fusion_estimates":                  "gauge",
		"radloc_ingest_requests_total":             "counter",
		"radloc_ingest_request_seconds":            "histogram",
		"radloc_ingest_inflight_requests":          "gauge",
		"radloc_transport_duplicates_total":        "counter",
		"radloc_transport_reorder_pending":         "gauge",
		"radloc_transport_release_batch_size":      "histogram",
		"radloc_wal_appends_total":                 "counter",
		"radloc_wal_append_seconds":                "histogram",
		"radloc_wal_offset":                        "gauge",
		"radloc_durable_checkpoints_total":         "counter",
		"radloc_durable_checkpoint_import_seconds": "gauge",
		"radloc_process_uptime_seconds":            "gauge",
	}
	for fam, typ := range wantTypes {
		if got := dump.types[fam]; got != typ {
			t.Errorf("family %s: type %q, want %q", fam, got, typ)
		}
	}
	// Every filter stage must have observed work under its own label.
	for _, stage := range []string{"select", "weight", "resample", "estimate"} {
		if n := dump.value(t, "radloc_filter_stage_seconds_count", map[string]string{"stage": stage}); n == 0 {
			t.Errorf("filter stage %q never observed", stage)
		}
	}
	// Histogram invariant: the +Inf bucket equals the sample count.
	for fam, typ := range dump.types {
		if typ != "histogram" {
			continue
		}
		counts := map[string]float64{} // label-signature → count
		infs := map[string]float64{}   // label-signature → +Inf bucket
		for _, s := range dump.samples {
			sig := labelSig(s.labels)
			switch s.name {
			case fam + "_count":
				counts[sig] = s.value
			case fam + "_bucket":
				if s.labels["le"] == "+Inf" {
					delete(s.labels, "le")
					infs[labelSig(s.labels)] = s.value
				}
			}
		}
		for sig, n := range counts {
			if inf, ok := infs[sig]; !ok || math.Abs(inf-n) > 0 {
				t.Errorf("%s{%s}: +Inf bucket %v != count %v", fam, sig, inf, n)
			}
		}
	}

	// Numerical agreement with /statez — same registry, same numbers.
	var sz statezJSON
	if err := json.Unmarshal([]byte(httpGetBody(t, srv.URL+"/statez", "application/json")), &sz); err != nil {
		t.Fatal(err)
	}
	if sz.Ingress.Duplicates == 0 {
		t.Fatal("chaos run produced no redelivery — the agreement check would be vacuous")
	}
	if sz.Durability.Recovery == nil || sz.Durability.Recovery.ImportSeconds <= 0 {
		t.Fatalf("/statez recovery = %+v, want a measured checkpoint import time", sz.Durability.Recovery)
	}
	agree := map[string]float64{
		"radloc_ingest_requests_total":             float64(sz.Ingress.Requests),
		"radloc_ingest_accepted_total":             float64(sz.Ingress.Accepted),
		"radloc_ingest_duplicates_total":           float64(sz.Ingress.Duplicates),
		"radloc_ingest_rejected_total":             float64(sz.Ingress.Rejected),
		"radloc_transport_duplicates_total":        float64(sz.Delivery.Duplicates),
		"radloc_transport_buffered_total":          float64(sz.Delivery.Buffered),
		"radloc_fusion_journaled_records":          float64(sz.Journaled),
		"radloc_wal_offset":                        float64(sz.Durability.WalOffset),
		"radloc_durable_checkpoints_total":         float64(sz.Durability.Checkpoints),
		"radloc_durable_checkpoint_import_seconds": sz.Durability.Recovery.ImportSeconds,
	}
	for fam, want := range agree {
		if got := dump.value(t, fam, nil); got != want {
			t.Errorf("%s = %v, /statez says %v", fam, got, want)
		}
	}

	// The replayed-refresh counts: boot a second daemon over a copy of
	// the WAL with its checkpoints dropped and its last refresh entry
	// cut, so its replay adopts every other refresh and searches one.
	image := copyDir(t, walRoot)
	cks, _ := filepath.Glob(filepath.Join(image, "checkpoint-*.json"))
	for _, ck := range cks {
		if err := os.Remove(ck); err != nil {
			t.Fatal(err)
		}
	}
	rewriteSegments(t, image, func(blob []byte) []byte {
		if i := bytes.LastIndex(blob, []byte(`{"crc":`)); i >= 0 && bytes.Contains(blob[i:], []byte(`,"refresh":`)) {
			return blob[:i]
		}
		t.Fatal("the WAL does not end in a refresh entry")
		return nil
	})
	cfg.WALDir, cfg.Metrics = image, obs.NewRegistry()
	srv2 := httptest.NewServer(bootNode(t, cfg).Handler())
	defer srv2.Close()
	dump2 := parseProm(t, httpGetBody(t, srv2.URL+"/metrics", "text/plain"))
	var sz2 statezJSON
	if err := json.Unmarshal([]byte(httpGetBody(t, srv2.URL+"/statez", "application/json")), &sz2); err != nil {
		t.Fatal(err)
	}
	rec := sz2.Durability.Recovery
	if rec == nil || rec.RefreshesAdopted == 0 || rec.RefreshesSearched != 1 {
		t.Fatalf("/statez recovery = %+v, want refreshes adopted and exactly one searched", rec)
	}
	for source, want := range map[string]uint64{"journal": rec.RefreshesAdopted, "search": rec.RefreshesSearched} {
		if got := dump2.value(t, "radloc_fusion_replay_refreshes_total", map[string]string{"source": source}); got != float64(want) {
			t.Errorf("radloc_fusion_replay_refreshes_total{source=%q} = %v, /statez says %v", source, got, want)
		}
	}
}

// labelSig renders a label set as a canonical comparison key.
func labelSig(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s,", k, labels[k])
	}
	return b.String()
}

func httpGetBody(t *testing.T, url, wantCT string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, wantCT) {
		t.Fatalf("GET %s: Content-Type %q, want %q prefix", url, ct, wantCT)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}
