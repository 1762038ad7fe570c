// Package httpingest is the fusion center's HTTP ingest boundary with
// backpressure: a handler for POST /measurements (and its zone-scoped
// form POST /zones/{zone}/measurements) that bounds request bodies
// (413), refuses non-JSON payloads (415), sheds load with 429 +
// Retry-After when its admission queue is full, rate-limits chatty
// sensors with per-(zone, sensor) token buckets, and feeds everything
// admitted to one submit function — a zone manager's Submit, or the
// daemon's write pipeline in front of one.
//
// It lives in its own package (rather than inside cmd/radlocd) so the
// daemon, the transport ablation and the chaos tests all exercise the
// exact same admission path.
package httpingest

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strconv"
	"sync"
	"time"

	"radloc/internal/clock"
	"radloc/internal/fusion"
	"radloc/internal/obs"
	"radloc/internal/zone"
)

// Measurement is the wire form of one reading — a single object or an
// array of them per request. Seq 0 means "unsequenced" and bypasses
// the engine's dedup/reorder gate (legacy feeders).
type Measurement struct {
	// Meas is the reading itself; its fields sit at the top level of
	// the JSON object.
	fusion.Meas
	// Zone names the zone this reading belongs to ("" = the default
	// zone). On the zone-scoped HTTP route it must match the route's
	// zone or the request is a 400; in pipe mode it routes the record.
	Zone string `json:"zone,omitempty"`
}

// SubmitFunc applies one admitted batch to the named zone, classifying
// each reading's outcome: zone.Manager.Submit, or the daemon's write
// pipeline in front of one. Its errors map to statuses as ServeHTTP
// documents.
type SubmitFunc func(ctx context.Context, zone string, ms []fusion.Meas) (fusion.BatchResult, error)

// ErrNotWritable is returned by a SubmitFunc whose zone stopped accepting
// writes on this node between request admission and the apply (for
// example, a cluster demotion mid-flight). It maps to 503 +
// Retry-After: the data is fine and the caller should keep its copy
// and retry — by then against the new primary.
var ErrNotWritable = errors.New("httpingest: zone not writable on this node")

// Options tunes a Handler.
type Options struct {
	// QueueDepth bounds concurrently admitted requests; one more and
	// the request is shed with 429 + Retry-After (default 64).
	QueueDepth int
	// MaxBody bounds the request body in bytes; over it is 413
	// (default 1 MiB).
	MaxBody int64
	// RetryAfter is the hint returned with 429 responses (default 1s,
	// rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// RatePerSec, when positive, caps each sensor's sustained reading
	// rate with a token bucket of Burst capacity, kept per (zone,
	// sensor) so one zone's chatter cannot starve another's quota. 0
	// disables rate limiting.
	RatePerSec float64
	// Burst is the token bucket capacity (default 4× RatePerSec,
	// minimum 1).
	Burst float64
	// MaxBuckets caps the live (zone, sensor) token buckets; the least
	// recently used is evicted past it (default 16384), so spoofed IDs
	// cannot grow the map without bound.
	MaxBuckets int
	// Clock drives the token buckets (default wall clock).
	Clock clock.Clock
	// Metrics, when non-nil, is the registry the admission counters
	// live on (radloc_ingest_*). The counters ARE the handler's
	// accounting — Stats() reads them — so /metrics and /statez can
	// never disagree. nil gets a private registry.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 1 << 20
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Burst <= 0 {
		o.Burst = 4 * o.RatePerSec
	}
	if o.Burst < 1 {
		o.Burst = 1
	}
	if o.MaxBuckets <= 0 {
		o.MaxBuckets = 16384
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	return o
}

// bucketKey identifies one token bucket: rate limits are scoped per
// zone so sensor IDs reused across zones stay independent.
type bucketKey struct {
	zone   string
	sensor int
}

// bucket is one (zone, sensor) pair's token bucket, threaded on the
// handler's LRU list.
type bucket struct {
	key    bucketKey
	tokens float64
	last   time.Time
}

// ingestMetrics is the handler's registry wiring — one counter per
// IngressStats field plus a queue-occupancy gauge and a request
// latency histogram. These collectors are the handler's only
// accounting; Stats() derives the wire struct from them.
type ingestMetrics struct {
	requests, accepted, duplicates, rejected *obs.Counter
	shed429, shed507, rateLimited, oversized *obs.Counter
	badContentType, malformed                *obs.Counter
	inflight                                 *obs.Gauge
	requestSeconds                           *obs.Histogram
}

func newIngestMetrics(r *obs.Registry) *ingestMetrics {
	r = obs.Or(r)
	return &ingestMetrics{
		requests: r.Counter("radloc_ingest_requests_total",
			"POST /measurements requests admitted past the method/Content-Type checks."),
		accepted: r.Counter("radloc_ingest_accepted_total",
			"Readings the engine took (applied or buffered in the reorder gate)."),
		duplicates: r.Counter("radloc_ingest_duplicates_total",
			"Readings the sequence gate suppressed as redelivery."),
		rejected: r.Counter("radloc_ingest_rejected_total",
			"Readings refused for cause (unknown sensor, impossible CPM, quarantine)."),
		shed429: r.Counter("radloc_ingest_shed_429_total",
			"Requests shed at the door because the admission queue was full (HTTP 429)."),
		shed507: r.Counter("radloc_ingest_shed_507_total",
			"Requests refused because the zone journal could not be written (HTTP 507)."),
		rateLimited: r.Counter("radloc_ingest_rate_limited_total",
			"Readings refused by a per-sensor token bucket (HTTP 429 + Retry-After)."),
		oversized: r.Counter("radloc_ingest_oversized_total",
			"Request bodies over the byte bound (HTTP 413)."),
		badContentType: r.Counter("radloc_ingest_bad_content_type_total",
			"Requests with a non-JSON Content-Type (HTTP 415)."),
		malformed: r.Counter("radloc_ingest_malformed_total",
			"Request bodies that did not parse (HTTP 400)."),
		inflight: r.Gauge("radloc_ingest_inflight_requests",
			"Requests currently holding an admission-queue slot."),
		requestSeconds: r.Histogram("radloc_ingest_request_seconds",
			"Wall-clock seconds per admitted POST /measurements request.", nil),
	}
}

// Handler serves POST /measurements (and the zone-scoped route) with
// admission control. Safe for concurrent use.
type Handler struct {
	submit SubmitFunc
	opts   Options
	slots  chan struct{}
	met    *ingestMetrics

	mu      sync.Mutex
	buckets map[bucketKey]*list.Element
	order   *list.List // LRU order: front = most recently used bucket
}

// New builds the ingest handler over submit, which receives every
// admitted batch together with the request's zone.
func New(submit SubmitFunc, opts Options) *Handler {
	opts = opts.withDefaults()
	return &Handler{
		submit:  submit,
		opts:    opts,
		slots:   make(chan struct{}, opts.QueueDepth),
		met:     newIngestMetrics(opts.Metrics),
		buckets: make(map[bucketKey]*list.Element),
		order:   list.New(),
	}
}

// Stats assembles the wire-format admission counters from the
// registry collectors — the same numbers GET /metrics renders.
func (h *Handler) Stats() fusion.IngressStats {
	m := h.met
	return fusion.IngressStats{
		Requests:       m.requests.Value(),
		Accepted:       m.accepted.Value(),
		Duplicates:     m.duplicates.Value(),
		Rejected:       m.rejected.Value(),
		Shed429:        m.shed429.Value(),
		Shed507:        m.shed507.Value(),
		RateLimited:    m.rateLimited.Value(),
		Oversized:      m.oversized.Value(),
		BadContentType: m.badContentType.Value(),
		Malformed:      m.malformed.Value(),
	}
}

// bucketFor returns the key's bucket, creating it (and evicting the
// least recently used one past MaxBuckets) as needed, and marks it
// most recently used. Callers hold h.mu.
func (h *Handler) bucketFor(key bucketKey, now time.Time) *bucket {
	if el, ok := h.buckets[key]; ok {
		h.order.MoveToFront(el)
		return el.Value.(*bucket)
	}
	if len(h.buckets) >= h.opts.MaxBuckets {
		oldest := h.order.Back()
		h.order.Remove(oldest)
		delete(h.buckets, oldest.Value.(*bucket).key)
	}
	b := &bucket{key: key, tokens: h.opts.Burst, last: now}
	h.buckets[key] = h.order.PushFront(b)
	return b
}

// allow takes one token from the (zone, sensor) bucket, refilling by
// elapsed time first. Rate limiting off ⇒ always true.
func (h *Handler) allow(zoneName string, sensorID int) bool {
	if h.opts.RatePerSec <= 0 {
		return true
	}
	now := h.opts.Clock.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.bucketFor(bucketKey{zone: zoneName, sensor: sensorID}, now)
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * h.opts.RatePerSec
		if b.tokens > h.opts.Burst {
			b.tokens = h.opts.Burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// refund returns one token to the (zone, sensor) bucket — used when a
// reading turns out to be dedup-suppressed redelivery, so retrying a
// partially-applied batch converges instead of burning its budget on
// the already-applied prefix.
func (h *Handler) refund(zoneName string, sensorID int) {
	if h.opts.RatePerSec <= 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.buckets[bucketKey{zone: zoneName, sensor: sensorID}]; ok {
		if b := el.Value.(*bucket); b.tokens < h.opts.Burst {
			b.tokens++
		}
	}
}

// retryAfterSeconds renders the Retry-After hint (whole seconds,
// minimum 1 — the header has no sub-second form).
func (h *Handler) retryAfterSeconds() string {
	secs := int((h.opts.RetryAfter + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (h *Handler) shed(w http.ResponseWriter, msg string) {
	w.Header().Set("Retry-After", h.retryAfterSeconds())
	http.Error(w, msg, http.StatusTooManyRequests)
}

// jsonContentType accepts application/json (any parameters) and an
// absent header; anything else is a 415.
func jsonContentType(ct string) bool {
	if ct == "" {
		return true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == "application/json"
}

// requestZone extracts the request's zone: the {zone} path value on
// the zone-scoped route, the default zone on the legacy one.
func requestZone(r *http.Request) string {
	if z := r.PathValue("zone"); z != "" {
		return z
	}
	return zone.DefaultZone
}

// submitStatus maps a submit error to its HTTP status.
func submitStatus(err error) int {
	var je *fusion.JournalError
	switch {
	case errors.Is(err, zone.ErrBadName):
		return http.StatusBadRequest
	case errors.Is(err, zone.ErrZoneLimit), errors.Is(err, zone.ErrManagerClosed), errors.Is(err, zone.ErrZoneClosed),
		errors.Is(err, ErrNotWritable):
		return http.StatusServiceUnavailable
	case errors.As(err, &je):
		// The zone's write-ahead journal refused the append: the disk,
		// not the data, is the problem. 507 tells the agent its batch
		// was not lost to rejection — keep the spooled copy, retry.
		return http.StatusInsufficientStorage
	}
	return http.StatusInternalServerError
}

// failSubmit writes the response for a submit error. The shedding
// statuses — 503 (shutting down / zone limit) and 507 (storage
// degraded) — carry Retry-After, so a well-behaved agent holds its
// spooled copy and retries instead of counting the batch lost;
// everything else is a plain error response.
func (h *Handler) failSubmit(w http.ResponseWriter, err error) {
	code := submitStatus(err)
	switch code {
	case http.StatusServiceUnavailable, http.StatusInsufficientStorage:
		if code == http.StatusInsufficientStorage {
			h.met.shed507.Inc()
		}
		w.Header().Set("Retry-After", h.retryAfterSeconds())
		http.Error(w, err.Error(), code)
	default:
		http.Error(w, err.Error(), code)
	}
}

// ServeHTTP implements the POST /measurements contract, identically
// on the legacy route and the zone-scoped POST /zones/{zone}/
// measurements form (the legacy route IS the default zone):
//
//	405 non-POST · 415 non-JSON Content-Type · 429+Retry-After
//	admission queue full or sensor rate-limited · 413 body over
//	MaxBody · 400 parse failure, bad zone name, or a reading whose
//	zone field contradicts the route · 503 zone limit reached or
//	shutting down · 507+Retry-After zone journal unwritable (storage
//	degraded; the agent keeps its spooled copy) · 200 {"accepted",
//	"duplicate","rejected"}
//
// The admission queue is the only load-shedding bound: an admitted
// batch waits for room in its zone's mailbox rather than being
// refused. On a rate-limit 429 nothing before the refusing reading is
// rolled back; the client retries the whole batch and the engine's
// sequence gate suppresses the replayed prefix — partial application
// plus dedup is what makes shed-and-retry loss-free.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !jsonContentType(r.Header.Get("Content-Type")) {
		h.met.badContentType.Inc()
		http.Error(w, "Content-Type must be application/json", http.StatusUnsupportedMediaType)
		return
	}
	zoneName := requestZone(r)
	if err := zone.ValidateName(zoneName); err != nil {
		h.met.malformed.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	select {
	case h.slots <- struct{}{}:
		h.met.inflight.Add(1)
		defer func() {
			h.met.inflight.Add(-1)
			<-h.slots
		}()
	default:
		h.met.shed429.Inc()
		h.shed(w, "ingest queue full, retry later")
		return
	}
	h.met.requests.Inc()
	t0 := time.Now()
	defer func() { h.met.requestSeconds.Observe(time.Since(t0).Seconds()) }()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, h.opts.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			h.met.oversized.Inc()
			http.Error(w, fmt.Sprintf("body over %d bytes", h.opts.MaxBody), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var batch []Measurement
	if err := json.Unmarshal(body, &batch); err != nil {
		var one Measurement
		if err := json.Unmarshal(body, &one); err != nil {
			h.met.malformed.Inc()
			http.Error(w, "want a measurement object or array", http.StatusBadRequest)
			return
		}
		batch = []Measurement{one}
	}
	for _, m := range batch {
		// A reading stamped for another zone must not be silently
		// folded into this one: refuse the whole batch before any of
		// it is applied.
		if m.Zone != "" && m.Zone != zoneName {
			h.met.malformed.Inc()
			http.Error(w, fmt.Sprintf("measurement zone %q contradicts request zone %q", m.Zone, zoneName),
				http.StatusBadRequest)
			return
		}
	}
	var res fusion.BatchResult
	if h.opts.RatePerSec > 0 {
		var handled bool
		res, handled = h.submitRateLimited(w, r.Context(), zoneName, batch)
		if handled {
			return // response already written
		}
	} else {
		ms := make([]fusion.Meas, len(batch))
		for i, m := range batch {
			ms[i] = m.Meas
		}
		res, err = h.submit(r.Context(), zoneName, ms)
		if err != nil {
			h.record(res)
			h.failSubmit(w, err)
			return
		}
	}
	h.record(res)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]int{
		"accepted":  res.Accepted,
		"duplicate": res.Duplicate,
		"rejected":  res.Rejected,
	})
}

// record folds one batch outcome into the admission counters.
func (h *Handler) record(res fusion.BatchResult) {
	h.met.accepted.Add(uint64(res.Accepted))
	h.met.duplicates.Add(uint64(res.Duplicate))
	h.met.rejected.Add(uint64(res.Rejected))
}

// submitRateLimited is the rate-limited submission path: each reading
// pays a (zone, sensor) token before it is offered, readings are
// submitted one at a time so a duplicate can refund its exact bucket,
// and the first refused reading sheds the remainder with 429 (the
// client retries the whole batch; dedup absorbs the replayed prefix).
// handled=true means the response was already written.
func (h *Handler) submitRateLimited(w http.ResponseWriter, ctx context.Context, zoneName string, batch []Measurement) (res fusion.BatchResult, handled bool) {
	for i, m := range batch {
		if !h.allow(zoneName, m.SensorID) {
			h.met.rateLimited.Add(uint64(len(batch) - i))
			h.record(res)
			h.shed(w, fmt.Sprintf("sensor %d over rate limit", m.SensorID))
			return res, true
		}
		one, err := h.submit(ctx, zoneName, []fusion.Meas{m.Meas})
		if err != nil {
			h.record(res)
			h.failSubmit(w, err)
			return res, true
		}
		if one.Duplicate > 0 {
			h.refund(zoneName, m.SensorID)
		}
		res.Add(one)
	}
	return res, false
}
