// Package failover turns the cluster's primary/standby layer into an
// unattended HA system. Each node runs a Promoter: a failure detector
// that probes every peer's /readyz on a jittered interval and pulls
// its /cluster/routes table so topology is learned, not configured.
// A peer is suspected after N consecutive probe misses and declared
// dead only once it has also been continuously unreachable for the
// hold-down window — a flapping link refreshes the last-alive stamp
// on every successful probe, so it never accumulates the hold-down
// and never triggers a promotion (no epoch thrash). When a peer is
// declared dead, the Promoter self-promotes the local standby for
// each zone the dead peer owned — through the cluster layer's
// existing epoch-fencing path — but only if local replication lag is
// under a configurable bound; otherwise it refuses, raises a metric,
// and retries on later ticks (the operator can still force the issue
// with `radloc ctl promote`).
package failover

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"radloc/internal/clock"
	"radloc/internal/cluster"
	"radloc/internal/obs"
	"radloc/internal/rng"
)

// Options configures a Promoter.
type Options struct {
	// Node is the cluster membership the promoter acts on. Required.
	Node *cluster.Node
	// Self is this node's own base URL, used to recognize itself in
	// learned routes. Required.
	Self string
	// Peers are the other nodes' base URLs to probe. A peer equal to
	// Self is skipped.
	Peers []string
	// Token, when non-empty, is attached as a bearer token to every
	// probe.
	Token string
	// HTTP performs the probes (default http.DefaultTransport).
	HTTP http.RoundTripper
	// Clock drives the probe schedule (default the wall clock).
	Clock clock.Clock
	// RNG jitters the probe interval; nil seeds a fixed stream from
	// Self, so a deterministic test fabric sees a deterministic
	// schedule.
	RNG *rng.Stream
	// Interval is the base probe period (default 2s), jittered ±20%
	// per tick.
	Interval time.Duration
	// Suspect is the consecutive probe misses before a peer is
	// suspected (default 3).
	Suspect int
	// HoldDown is how long a suspected peer must be continuously
	// unreachable before it is declared dead (default 10s). Any
	// successful probe resets the window — the flapping defense.
	HoldDown time.Duration
	// ProbeTimeout bounds one probe round-trip (default Interval).
	ProbeTimeout time.Duration
	// MaxPromoteLag is the highest replication lag, in records, at
	// which self-promotion is still safe (default 0: the standby must
	// be fully caught up to the last head it saw). Above it the
	// promoter refuses and raises radloc_failover_refusals_total.
	MaxPromoteLag uint64
	// Metrics receives the radloc_failover_* collectors; nil gets a
	// private registry.
	Metrics *obs.Registry
	// Log, when non-nil, receives detection and promotion decisions.
	Log *log.Logger
}

// peerState is the failure detector's view of one peer.
type peerState struct {
	url       string
	misses    int       // consecutive failed probes
	lastAlive time.Time // last time any probe got a healthy HTTP response
	lastProbe time.Time // last time any probe was attempted
	dead      bool      // declared dead (suspect + hold-down elapsed)
}

// Promoter is the per-node failure detector and auto-promotion loop.
// Build with New and run with Run until its context ends; Tick is
// exported so tests drive the detector under a fake clock.
type Promoter struct {
	opts Options
	met  *promoterMetrics

	mu    sync.Mutex
	peers []*peerState
}

// New builds a Promoter. Call Run to begin probing.
func New(opts Options) (*Promoter, error) {
	if opts.Node == nil {
		return nil, errors.New("failover: Options.Node is required")
	}
	if opts.Self == "" {
		return nil, errors.New("failover: Options.Self is required")
	}
	if opts.HTTP == nil {
		opts.HTTP = http.DefaultTransport
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real{}
	}
	if opts.RNG == nil {
		opts.RNG = rng.NewNamed(0x0fa17, opts.Self)
	}
	if opts.Interval <= 0 {
		opts.Interval = 2 * time.Second
	}
	if opts.Suspect <= 0 {
		opts.Suspect = 3
	}
	if opts.HoldDown <= 0 {
		opts.HoldDown = 10 * time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = opts.Interval
	}
	p := &Promoter{opts: opts, met: newPromoterMetrics(obs.Or(opts.Metrics))}
	now := opts.Clock.Now()
	for _, u := range opts.Peers {
		if u == "" || u == opts.Self {
			continue
		}
		p.peers = append(p.peers, &peerState{url: u, lastAlive: now})
		p.met.peerUp(u, true)
	}
	return p, nil
}

func (p *Promoter) logf(format string, args ...any) {
	if p.opts.Log != nil {
		p.opts.Log.Printf(format, args...)
	}
}

// Run probes at once and then on a jittered schedule until ctx is
// done.
func (p *Promoter) Run(ctx context.Context) {
	if ctx.Err() != nil {
		return
	}
	p.Tick(ctx)
	clock.Every(ctx, p.opts.Clock, p.opts.Interval, p.opts.RNG.Float64, p.Tick)
}

// Tick runs one probe round: every peer's liveness is checked, its
// routes are merged, death is (re)evaluated against the suspicion
// threshold and hold-down window, and promotions are attempted for
// zones owned by dead peers. Exposed so tests drive the detector
// deterministically under a fake clock.
func (p *Promoter) Tick(ctx context.Context) {
	now := p.opts.Clock.Now()
	for _, ps := range p.peers {
		alive := p.probe(ctx, ps.url)
		p.met.probes.Inc()
		if !alive {
			p.met.probeFails.Inc()
		}
		p.mu.Lock()
		ps.lastProbe = now
		if alive {
			if ps.dead {
				p.logf("failover: peer %s is back", ps.url)
			}
			ps.misses = 0
			ps.lastAlive = now
			ps.dead = false
			p.met.peerUp(ps.url, true)
			p.mu.Unlock()
			continue
		}
		ps.misses++
		suspected := ps.misses >= p.opts.Suspect
		heldDown := now.Sub(ps.lastAlive) >= p.opts.HoldDown
		if suspected && heldDown && !ps.dead {
			ps.dead = true
			p.met.peerUp(ps.url, false)
			p.met.deaths.Inc()
			p.logf("failover: peer %s declared dead after %d misses and %s unreachable",
				ps.url, ps.misses, now.Sub(ps.lastAlive))
		}
		dead := ps.dead
		p.mu.Unlock()
		if dead {
			p.promoteZonesOf(ps.url)
		}
	}
}

// probe checks one peer: any HTTP response — including 503 from a
// lagging-but-running daemon — counts as alive (a lagging node is
// not a dead node), and its routes table is merged when readable.
// Two things are a miss: a transport-level failure, and a 503
// carrying the X-Radloc-Storage: degraded header — a primary whose
// disk stopped accepting writes is answering 507 to every agent, so
// for promotion purposes it is as good as gone; only the hold-down
// window separates a transient ENOSPC blip from a real takeover.
func (p *Promoter) probe(ctx context.Context, peer string) bool {
	ctx, cancel := p.opts.Clock.WithTimeout(ctx, p.opts.ProbeTimeout)
	defer cancel()
	resp, err := p.get(ctx, peer+"/readyz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("X-Radloc-Storage") == "degraded" {
		p.met.degraded.Inc()
		return false
	}

	if rresp, err := p.get(ctx, peer+"/cluster/routes"); err == nil {
		var routes cluster.Routes
		if derr := json.NewDecoder(io.LimitReader(rresp.Body, 1<<20)).Decode(&routes); derr == nil {
			if p.opts.Node.LearnRoutes(routes) {
				p.logf("failover: learned routes from %s", peer)
			}
		}
		io.Copy(io.Discard, rresp.Body)
		rresp.Body.Close()
	}
	return true
}

// get issues one authenticated GET through the promoter's transport.
func (p *Promoter) get(ctx context.Context, u string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if p.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+p.opts.Token)
	}
	return p.opts.HTTP.RoundTrip(req)
}

// promoteZonesOf promotes the local standby for every zone whose
// primary is the dead peer, provided this node is the zone's standby
// (designated in the routes table, or simply replicating it) and its
// lag is under the bound.
func (p *Promoter) promoteZonesOf(deadPeer string) {
	routes := p.opts.Node.Routes()
	for _, st := range p.opts.Node.Status() {
		if st.Role != cluster.RoleStandby || st.Primary != deadPeer {
			continue
		}
		if rt, ok := routes.Zones[st.Zone]; ok && rt.Standby != "" && rt.Standby != p.opts.Self {
			// Another node is the designated standby; let it take over.
			continue
		}
		if !st.CaughtUp && st.LagRecords > p.opts.MaxPromoteLag {
			p.met.refusals.Inc()
			p.logf("failover: refusing to promote zone %q: lag %d records above bound %d",
				st.Zone, st.LagRecords, p.opts.MaxPromoteLag)
			continue
		}
		epoch, err := p.opts.Node.Promote(st.Zone)
		if err != nil {
			p.logf("failover: promote zone %q: %v", st.Zone, err)
			continue
		}
		p.met.promotions.Inc()
		p.logf("failover: promoted zone %q to epoch %d after death of %s", st.Zone, epoch, deadPeer)
	}
}

// Peers reports the detector's current view, for status surfaces:
// wired through cluster.Node.SetPeersFunc, it is what /cluster/status
// publishes. Safe for concurrent use.
func (p *Promoter) Peers() []cluster.PeerView {
	now := p.opts.Clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]cluster.PeerView, 0, len(p.peers))
	for _, ps := range p.peers {
		st := cluster.PeerView{URL: ps.url, Up: ps.misses == 0, Misses: ps.misses, Dead: ps.dead, LastProbe: ps.lastProbe}
		if ps.misses > 0 {
			st.DownForSeconds = now.Sub(ps.lastAlive).Seconds()
			if !ps.dead {
				if rem := p.opts.HoldDown - now.Sub(ps.lastAlive); rem > 0 {
					st.HoldDownRemainingSeconds = rem.Seconds()
				}
			}
		}
		out = append(out, st)
	}
	return out
}

// String identifies the promoter in logs.
func (p *Promoter) String() string {
	return fmt.Sprintf("failover.Promoter(%s, %d peers)", p.opts.Self, len(p.peers))
}
