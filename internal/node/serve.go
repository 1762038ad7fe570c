package node

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"radloc/internal/cluster"
	"radloc/internal/fusion"
	"radloc/internal/httpingest"
	"radloc/internal/zone"
)

// measurementJSON is the wire form of one reading, shared with the
// HTTP ingest boundary. The full record form carries the emission
// step and a per-sensor monotone sequence number (what the replay
// recorder emits); the minimal two-field form remains valid — seq 0
// means "unsequenced" and bypasses the dedup/reorder gate, preserving
// the old trust-the-transport behavior for legacy feeders.
type measurementJSON = httpingest.Measurement

// snapshotJSON is the wire form of the engine state.
type snapshotJSON struct {
	Ingested    uint64                `json:"ingested"`
	Rejected    uint64                `json:"rejected"`
	Refreshes   uint64                `json:"refreshes"`
	Quarantined int                   `json:"quarantined"`
	Malformed   uint64                `json:"malformed,omitempty"`   // pipe mode: unparseable lines skipped
	ZoneRefused uint64                `json:"zoneRefused,omitempty"` // pipe mode: readings refused at the zone boundary (bad name, zone limit)
	Journaled   uint64                `json:"journaled,omitempty"`   // WAL offset (durability on)
	Delivery    *fusion.DeliveryStats `json:"delivery,omitempty"`    // dedup/reorder gate counters
	Estimates   []estimateJSON        `json:"estimates"`
	Tracks      []trackJSON           `json:"tracks,omitempty"`
}

type estimateJSON struct {
	X           float64 `json:"x"`
	Y           float64 `json:"y"`
	StrengthUCi float64 `json:"strengthUCi"`
	Mass        float64 `json:"mass"`
}

type trackJSON struct {
	ID          int     `json:"id"`
	X           float64 `json:"x"`
	Y           float64 `json:"y"`
	StrengthUCi float64 `json:"strengthUCi"`
	Hits        int     `json:"hits"`
}

// sensorHealthJSON is the wire form of one sensor's health record.
type sensorHealthJSON struct {
	SensorID    int      `json:"sensorId"`
	Status      string   `json:"status"`
	LastZ       *float64 `json:"lastZ,omitempty"` // omitted until the monitor has scored a reading
	Seen        uint64   `json:"seen"`
	Dropped     uint64   `json:"dropped"`
	Quarantines int      `json:"quarantines"`
}

func healthToJSON(hs []fusion.SensorHealth) []sensorHealthJSON {
	out := make([]sensorHealthJSON, 0, len(hs))
	for _, h := range hs {
		rec := sensorHealthJSON{
			SensorID:    h.SensorID,
			Status:      h.Status.String(),
			Seen:        h.Seen,
			Dropped:     h.Dropped,
			Quarantines: h.Quarantines,
		}
		if !math.IsNaN(h.LastZ) {
			z := h.LastZ
			rec.LastZ = &z
		}
		out = append(out, rec)
	}
	return out
}

func snapshotToJSON(s fusion.Snapshot) snapshotJSON {
	out := snapshotJSON{
		Ingested:    s.Ingested,
		Rejected:    s.Rejected,
		Refreshes:   s.Refreshes,
		Quarantined: s.Quarantined,
		Journaled:   s.Journaled,
		Estimates:   make([]estimateJSON, 0, len(s.Estimates)),
	}
	if s.Delivery != (fusion.DeliveryStats{}) {
		del := s.Delivery
		out.Delivery = &del
	}
	for _, e := range s.Estimates {
		out.Estimates = append(out.Estimates, estimateJSON{
			X: e.Pos.X, Y: e.Pos.Y, StrengthUCi: e.Strength, Mass: e.Mass,
		})
	}
	for _, t := range s.Tracks {
		out.Tracks = append(out.Tracks, trackJSON{
			ID: t.ID, X: t.Pos.X, Y: t.Pos.Y, StrengthUCi: t.Strength, Hits: t.Hits,
		})
	}
	return out
}

// queuedMeas is one parsed pipe-mode line: the reading plus the zone
// it routes to, or a line that did not parse.
type queuedMeas struct {
	zone      string
	m         fusion.Meas
	malformed bool
}

// servePipe consumes NDJSON measurements from r and applies every one
// through the write pipeline, emitting a snapshot line (of the default
// zone — the legacy wire format) every reportEvery measurements and a
// final one at EOF or when ctx is cancelled (SIGINT/SIGTERM). A reader
// goroutine parses lines and hands each one over an unbuffered
// channel, so a producer that outpaces the engine waits on the pipe
// instead of losing data, every output line is a function of the input
// alone, and a cancelled ctx stops the stream even while the reader is
// blocked on input. A record's "zone" field routes it to that zone;
// unstamped records land in the default zone. Each reading goes
// through its zone's event loop as a synchronous batch of one, so
// application order is input order and every zone's checkpoint cadence
// fires per reading. Malformed lines are counted and skipped — field
// data is messy and one corrupt record must not kill the stream — as
// are unknown sensors, duplicates, out-of-range readings and readings
// for unroutable zones.
func servePipe(ctx context.Context, zs *zoneSet, r io.Reader, w io.Writer, reportEvery int) error {
	def := zs.defaultZone()
	readings := make(chan queuedMeas)
	scanErr := make(chan error, 1)
	go func() {
		defer close(readings)
		scanner := bufio.NewScanner(r)
		scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
		for scanner.Scan() {
			line := scanner.Bytes()
			if len(line) == 0 {
				continue
			}
			var qm queuedMeas
			var m measurementJSON
			if err := json.Unmarshal(line, &m); err != nil {
				qm.malformed = true
			} else {
				qm.zone, qm.m = m.Zone, m.Meas
				if qm.zone == "" {
					qm.zone = zone.DefaultZone
				}
			}
			select {
			case readings <- qm:
			case <-ctx.Done():
				return
			}
		}
		scanErr <- scanner.Err()
	}()

	enc := json.NewEncoder(w)
	count := 0
	var malformed, zoneRefused uint64
	flush := func() error {
		s := snapshotToJSON(def.Snapshot())
		s.Malformed = malformed
		s.ZoneRefused = zoneRefused
		return enc.Encode(s)
	}
	for {
		var qm queuedMeas
		ok := false
		select {
		case qm, ok = <-readings:
		case <-ctx.Done():
		}
		if !ok || ctx.Err() != nil {
			break
		}
		if qm.malformed {
			malformed++
			continue
		}
		if _, err := zs.pipe.Submit(ctx, qm.zone, []fusion.Meas{qm.m}); err != nil && ctx.Err() == nil {
			// Bad zone name, zone limit or a write fence: the reading has
			// nowhere to go here; count it and keep the stream moving.
			zoneRefused++
			continue
		}
		count++
		if count%reportEvery == 0 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if ctx.Err() == nil {
		if err := <-scanErr; err != nil {
			return err
		}
	}
	// Graceful end of stream: release the default zone's reorder-gate
	// tail (the watermark will never advance again), journal it, and
	// emit the final source picture. The caller's zoneSet.close does
	// the same flush for named zones and writes every final checkpoint.
	// ctx may already be cancelled, so the settle takes none; a failure
	// is logged and the final picture still goes out.
	if err := zs.settle(context.Background(), zone.DefaultZone); err != nil {
		fmt.Fprintf(zs.cfg.Log, "radlocd: zone %q final flush: %v\n", zone.DefaultZone, err)
	}
	return flush()
}

// fenceWrites renders the write pipeline's fence stage at the HTTP
// boundary, ahead of body admission so routing wins over backpressure:
// only the zone's live primary applies writes. A standby with a known
// primary answers 307 — the agent's transport follows it and re-aims —
// and a draining or ownerless zone answers 503 so the agent's
// retry/spool machinery holds the data instead of losing it.
func fenceWrites(p *WritePipeline, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("zone")
		if name == "" {
			name = zone.DefaultZone
		}
		if err := p.Fence(name); err != nil {
			var np *cluster.NotPrimaryError
			switch {
			case errors.As(err, &np) && np.Primary != "":
				http.Redirect(w, r, np.Primary+r.URL.RequestURI(), http.StatusTemporaryRedirect)
			case errors.Is(err, cluster.ErrDraining):
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
			default:
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
			}
			return
		}
		next.ServeHTTP(w, r)
	})
}

// getJSON wraps a read endpoint: GET only, and the render result is
// written as JSON.
func getJSON(render func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(render())
	}
}

// zoneGET wraps a per-zone read endpoint: GET only, the zone must
// already be live (reads never conjure zones into being — a name
// without a zone is a 404), and the render result is written as JSON.
// A route without a {zone} reads the default zone.
func zoneGET(man *zone.Manager, render func(*zone.Zone) any) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		name := r.PathValue("zone")
		if name == "" {
			name = zone.DefaultZone
		}
		if err := zone.ValidateName(name); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		z, ok := man.Lookup(name)
		if !ok {
			http.Error(w, fmt.Sprintf("no such zone %q", name), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(render(z))
	}
}

// statsToJSON is the /stats payload for one zone's snapshot. Health
// holds one record per registered sensor.
func statsToJSON(s fusion.Snapshot, started time.Time) map[string]any {
	return map[string]any{
		"uptimeSeconds": time.Since(started).Seconds(),
		"sensors":       len(s.Health),
		"ingested":      s.Ingested,
		"rejected":      s.Rejected,
		"refreshes":     s.Refreshes,
		"quarantined":   s.Quarantined,
		"estimates":     len(s.Estimates),
		"tracks":        len(s.Tracks),
	}
}

// newMux builds n's HTTP API. Reads are served from each zone's
// published snapshot, so they never wait behind a writer. In cluster
// mode it mounts the /cluster endpoints and fences the write routes: a
// standby zone 307s writes to its primary (or 503s when the primary is
// unknown), a draining zone 503s with Retry-After. The pprof endpoints
// expose heap contents, so they are mounted only when Config.Pprof
// opts in.
func newMux(n *Node) *http.ServeMux {
	zs, ing, clu := n.zs, n.ingest, n.clu
	def := zs.defaultZone()
	d := zoneDurable(def)
	mux := http.NewServeMux()
	// Prometheus text-format exposition of the process registry: the
	// same collectors /statez and /stats derive their JSON from.
	mux.Handle("/metrics", n.reg.Handler())
	if n.cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Durability and delivery posture: WAL offset, checkpoint history,
	// boot-time recovery report, dedup/reorder counters, admission
	// (backpressure) counters.
	mux.HandleFunc("/statez", getJSON(func() any { return statez(def.Snapshot(), d, ing) }))
	// Liveness: the process is up and serving.
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "ok: %d sensors registered\n", len(def.Snapshot().Health))
	})
	// Readiness: the engine has recomputed estimates at least once, so
	// /snapshot serves a meaningful source picture. Distinct from
	// liveness so orchestrators don't route traffic to a fusion center
	// that has not yet seen a full sensor round.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		// Boot-time zone recovery is done by the time New returns, but a
		// standby's replication catch-up may still be in progress.
		if clu != nil && !clu.Ready() {
			http.Error(w, "not ready: zone recovery or replication catch-up in progress",
				http.StatusServiceUnavailable)
			return
		}
		// Degraded storage keeps the node out of rotation for writes:
		// reads still work (snapshots, metrics), but an orchestrator or
		// the failure detector reading /readyz should treat this node as
		// impaired. The header names the cause so the failover prober
		// can count it as a miss without parsing the body.
		if degraded := zs.degradedZones(); len(degraded) > 0 {
			w.Header().Set("X-Radloc-Storage", "degraded")
			http.Error(w, fmt.Sprintf("not ready: storage degraded in zones %v (ingest read-only, answering 507)", degraded),
				http.StatusServiceUnavailable)
			return
		}
		// A standby serves reads before its first refresh — its state
		// comes from replication, not local ingest — so the refresh
		// check applies only where this node owns the default zone.
		standby := false
		if clu != nil {
			var np *cluster.NotPrimaryError
			standby = errors.As(clu.AdmitWrite(zone.DefaultZone), &np)
		}
		s := def.Snapshot()
		if s.Refreshes == 0 && !standby {
			http.Error(w, fmt.Sprintf("not ready: %d measurements ingested, no estimate refresh yet", s.Ingested),
				http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ready: %d refreshes over %d measurements\n", s.Refreshes, s.Ingested)
	})
	// Sequenced readings pass the dedup/reorder gate (a buffered
	// reading counts as accepted: it will be applied when its round
	// releases); seq-0 readings take the legacy direct path. The
	// handler sheds with 429 + Retry-After under overload — see
	// internal/httpingest. In cluster mode, writes are additionally
	// fenced to the zone's live primary.
	var writeRoute http.Handler = ing
	if clu != nil {
		writeRoute = fenceWrites(zs.pipe, ing)
		clu.Mount(mux)
	}
	mux.Handle("/measurements", writeRoute)
	man := zs.manager
	// Zone registry: the live zone names, sorted.
	mux.HandleFunc("/zones", getJSON(func() any { return map[string]any{"zones": man.Names()} }))
	// The zone-scoped write route shares the admission handler with
	// the legacy route; the {zone} path value picks the engine (and
	// creates the zone on its first batch).
	mux.Handle("/zones/{zone}/measurements", writeRoute)
	// Zone-scoped reads, each also served unnamed for the default
	// zone.
	started := time.Now()
	for route, render := range map[string]func(*zone.Zone) any{
		"snapshot": func(z *zone.Zone) any { return snapshotToJSON(z.Snapshot()) },
		"sensors":  func(z *zone.Zone) any { return healthToJSON(z.Snapshot().Health) },
		"stats":    func(z *zone.Zone) any { return statsToJSON(z.Snapshot(), started) },
	} {
		h := zoneGET(man, render)
		mux.HandleFunc("/"+route, h)
		mux.HandleFunc("/zones/{zone}/"+route, h)
	}
	mux.HandleFunc("/zones/{zone}/statez", zoneGET(man, func(z *zone.Zone) any {
		// Ingress (admission) counters are handler-global, shared by
		// every zone, so the per-zone view reports durability and
		// delivery only.
		return statez(z.Snapshot(), zoneDurable(z), nil)
	}))
	return mux
}

// newHTTPServer assembles the daemon's http.Server with cfg's
// slow-client guards: a client that trickles its request (slow loris),
// stalls reading the response, or parks an idle keep-alive connection
// is cut instead of pinning a connection forever. A timeout at or below
// zero takes its default.
func newHTTPServer(h http.Handler, cfg Config) *http.Server {
	orDefault := func(d, def time.Duration) time.Duration {
		if d <= 0 {
			return def
		}
		return d
	}
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       orDefault(cfg.ReadTimeout, 15*time.Second),
		WriteTimeout:      orDefault(cfg.WriteTimeout, 30*time.Second),
		IdleTimeout:       orDefault(cfg.IdleTimeout, 2*time.Minute),
	}
}

// serveHTTP serves the node's handler on cfg.Listen until ctx is
// cancelled (SIGINT/SIGTERM), then shuts down gracefully — in-flight
// requests drain — and flushes the default zone's final snapshot line
// to logw.
func (n *Node) serveHTTP(ctx context.Context, logw io.Writer) error {
	ln, err := net.Listen("tcp", n.cfg.Listen)
	if err != nil {
		return err
	}
	extra := ""
	if n.cfg.Pprof {
		extra = " /debug/pprof/"
	}
	fmt.Fprintf(logw, "radlocd: serving on http://%s (POST /measurements /zones/{z}/measurements, GET /snapshot /sensors /statez /zones /metrics /healthz /readyz%s)\n", ln.Addr(), extra)
	srv := newHTTPServer(n.mux, n.cfg)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		_ = srv.Close()
	}
	// Release and journal the reorder gate's tail before the final
	// picture (ctx is cancelled by now); the caller writes the final
	// checkpoint.
	if err := n.Settle(context.Background(), zone.DefaultZone); err != nil {
		fmt.Fprintf(logw, "radlocd: zone %q final flush: %v\n", zone.DefaultZone, err)
	}
	fmt.Fprintln(logw, "radlocd: shutting down, final snapshot:")
	return json.NewEncoder(logw).Encode(snapshotToJSON(n.zs.defaultZone().Snapshot()))
}
