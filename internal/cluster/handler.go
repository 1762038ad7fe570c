package cluster

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"radloc/internal/wal"
	"radloc/internal/zone"
)

// Mount registers the /cluster endpoints on mux. Discovery endpoints
// (/cluster/routes, /cluster/status) are open; everything that moves
// state or data requires the bearer token when one is configured.
func (n *Node) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /cluster/routes", n.handleRoutes)
	mux.HandleFunc("GET /cluster/status", n.handleStatus)
	mux.HandleFunc("GET /cluster/wal/{zone}", n.auth(n.handleWAL))
	mux.HandleFunc("GET /cluster/state/{zone}", n.auth(n.handleState))
	mux.HandleFunc("POST /cluster/promote/{zone}", n.auth(n.handlePromote))
	mux.HandleFunc("POST /cluster/demote/{zone}", n.auth(n.handleDemote))
	mux.HandleFunc("POST /cluster/drain/{zone}", n.auth(n.handleDrain))
	mux.HandleFunc("POST /cluster/replicate/{zone}", n.auth(n.handleReplicate))
	mux.HandleFunc("POST /cluster/release/{zone}", n.auth(n.handleRelease))
}

// auth wraps a handler with constant-time bearer-token verification.
// No configured token means open endpoints (single-operator labs).
func (n *Node) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if n.opts.Token != "" {
			got := r.Header.Get("Authorization")
			want := "Bearer " + n.opts.Token
			if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
				http.Error(w, "unauthorized", http.StatusUnauthorized)
				return
			}
		}
		h(w, r)
	}
}

// reqZone validates the {zone} path segment; a bad name 404s.
func reqZone(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.PathValue("zone")
	if err := zone.ValidateName(name); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return "", false
	}
	return name, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func (n *Node) handleRoutes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, n.Routes())
}

func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, struct {
		Self  string       `json:"self"`
		Zones []ZoneStatus `json:"zones"`
		Peers []PeerView   `json:"peers,omitempty"`
	}{Self: n.opts.Self, Zones: n.Status(), Peers: n.peerViews()})
}

// handleWAL streams the zone's WAL suffix [from, from+max): a hello
// frame, the WAL lines of those records, and an end frame. The from
// parameter doubles as the replica's durable ack — everything below it
// is applied on the standby — so it advances the retention floor
// before any bytes ship.
func (n *Node) handleWAL(w http.ResponseWriter, r *http.Request) {
	name, ok := reqZone(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		http.Error(w, "bad from", http.StatusBadRequest)
		return
	}
	reqEpoch, err := strconv.ParseUint(q.Get("epoch"), 10, 64)
	if err != nil {
		http.Error(w, "bad epoch", http.StatusBadRequest)
		return
	}
	max := n.opts.PullBatch
	if s := q.Get("max"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 0 && v <= 1<<16 {
			max = v
		}
	}

	n.mu.Lock()
	zs, zerr := n.zoneFor(name)
	var epoch, floor uint64
	if zerr == nil {
		epoch = zs.epoch
		floor = n.divergenceFloorLocked(zs, reqEpoch)
	}
	n.mu.Unlock()
	if zerr != nil {
		http.Error(w, zerr.Error(), http.StatusInternalServerError)
		return
	}
	if reqEpoch > epoch {
		// The puller was promoted past us: we are the stale side. Step
		// down so we stop accepting writes — keeping our old epoch, so
		// our own next pull carries it and the new primary's
		// divergence floor gets to judge whatever we wrote while
		// isolated — and refuse the pull: the new primary has nothing
		// to learn from us.
		n.met.fenced()
		n.stepDown(name, "")
		http.Error(w, "stale primary epoch", http.StatusConflict)
		return
	}

	b, err := n.opts.Resolver(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	entries, err := b.ReadWAL(from, max)
	if errors.Is(err, ErrPruned) {
		http.Error(w, "offset pruned; bootstrap from /cluster/state", http.StatusGone)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	n.recordAck(name, b, from)

	// The entries are copies: a standby that reads slowly holds only
	// this handler, never the zone. The head is read after the copy, so
	// it is at least one past the last record sent.
	head := b.Offset()
	w.Header().Set("Content-Type", "application/x-ndjson")
	line, err := EncodeControl(Frame{Type: FrameHello, Epoch: epoch, Head: head, Start: floor, Off: from})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if _, err := w.Write(line); err != nil {
		return
	}
	var sent uint64
	for _, e := range entries {
		line, err = wal.AppendEntry(line[:0], e)
		if err == nil {
			_, err = w.Write(line)
		}
		if err != nil {
			// Headers are gone; a torn write is exactly what the
			// standby's prefix-safe decoder expects. Just stop.
			n.met.shipped.Add(sent)
			n.logf("cluster: serve wal %q: %v", name, err)
			return
		}
		sent++
	}
	n.met.shipped.Add(sent)
	if line, err := EncodeControl(Frame{Type: FrameEnd, Epoch: epoch, Head: head}); err == nil {
		w.Write(line)
	}
}

// handleState exports the zone's full serialized state for replica
// bootstrap and migration checkpoint-shipping.
func (n *Node) handleState(w http.ResponseWriter, r *http.Request) {
	name, ok := reqZone(w, r)
	if !ok {
		return
	}
	b, err := n.opts.Resolver(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	state, applied, err := b.ExportState()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	n.mu.Lock()
	var epoch uint64
	if zs, zerr := n.zoneFor(name); zerr == nil {
		epoch = zs.epoch
	}
	n.mu.Unlock()
	writeJSON(w, stateSnapshot{Applied: applied, Epoch: epoch, State: state})
}

func (n *Node) handlePromote(w http.ResponseWriter, r *http.Request) {
	name, ok := reqZone(w, r)
	if !ok {
		return
	}
	epoch, err := n.Promote(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]uint64{"epoch": epoch})
}

func (n *Node) handleDemote(w http.ResponseWriter, r *http.Request) {
	name, ok := reqZone(w, r)
	if !ok {
		return
	}
	var body struct {
		Epoch   uint64 `json:"epoch"`
		Primary string `json:"primary"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, "bad body", http.StatusBadRequest)
		return
	}
	if err := n.Demote(name, body.Epoch, body.Primary); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, ErrStaleEpoch) {
			code = http.StatusConflict
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleDrain(w http.ResponseWriter, r *http.Request) {
	name, ok := reqZone(w, r)
	if !ok {
		return
	}
	draining := true
	var body struct {
		Draining *bool `json:"draining"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err == nil && body.Draining != nil {
		draining = *body.Draining
	}
	if err := n.SetDraining(name, draining); err != nil {
		var np *NotPrimaryError
		if errors.As(err, &np) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b, err := n.opts.Resolver(name)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, map[string]any{"draining": draining, "head": b.Offset()})
}

func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	name, ok := reqZone(w, r)
	if !ok {
		return
	}
	var body struct {
		From string `json:"from"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.From == "" {
		http.Error(w, "bad body: want {\"from\":\"http://...\"}", http.StatusBadRequest)
		return
	}
	if err := n.Replicate(name, body.From); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleRelease(w http.ResponseWriter, r *http.Request) {
	name, ok := reqZone(w, r)
	if !ok {
		return
	}
	var body struct {
		To string `json:"to"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		http.Error(w, "bad body", http.StatusBadRequest)
		return
	}
	if err := n.Release(name, body.To); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
