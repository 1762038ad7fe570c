package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// PeerView is one probed peer's liveness as the failure detector sees
// it, published on /cluster/status so an operator (or radloc ctl) can
// read the promoter's world-view instead of inferring it from logs.
// The detector (internal/failover) produces these; the cluster node
// only relays them — SetPeersFunc keeps the dependency pointing
// failover → cluster, not both ways.
type PeerView struct {
	// URL is the peer's base URL as probed.
	URL string `json:"url"`
	// Up reports the last probe succeeded.
	Up bool `json:"up"`
	// Misses is the current consecutive probe-failure count.
	Misses int `json:"misses"`
	// Dead reports the peer has exhausted its hold-down and the
	// detector considers it gone.
	Dead bool `json:"dead,omitempty"`
	// LastProbe is when the detector last probed this peer (zero when
	// it has not been probed yet).
	LastProbe time.Time `json:"lastProbe,omitempty"`
	// DownForSeconds is how long the peer has been failing probes.
	DownForSeconds float64 `json:"downForSeconds,omitempty"`
	// HoldDownRemainingSeconds is how much flap-damping time is left
	// before a suspected peer is declared dead (0 once dead or up).
	HoldDownRemainingSeconds float64 `json:"holdDownRemainingSeconds,omitempty"`
}

// SetPeersFunc installs the failure detector's peer-view snapshot
// function; /cluster/status calls it per request. fn must be safe for
// concurrent use. nil uninstalls.
func (n *Node) SetPeersFunc(fn func() []PeerView) {
	n.mu.Lock()
	n.peersFn = fn
	n.mu.Unlock()
}

// peerViews snapshots the installed detector's view, nil when no
// detector is wired.
func (n *Node) peerViews() []PeerView {
	n.mu.Lock()
	fn := n.peersFn
	n.mu.Unlock()
	if fn == nil {
		return nil
	}
	return fn()
}

// RepairSource returns the URL of a replica able to re-seed this
// zone's state, and the offset it is known to have durably applied.
// Requirements: this node is the zone's primary, the routing table
// names a standby that is not this node, and the standby has acked at
// least one pull (proof it holds a usable copy). ok=false means the
// zone has no independent copy — scrub repair must fall back to the
// local in-memory state.
func (n *Node) RepairSource(zone string) (peerURL string, acked uint64, ok bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	zs, found := n.zones[zone]
	if !found || zs.role != RolePrimary || zs.acked == 0 {
		return "", 0, false
	}
	rt, found := n.routes.Zones[zone]
	if !found || rt.Standby == "" || rt.Standby == n.opts.Self {
		return "", 0, false
	}
	return rt.Standby, zs.acked, true
}

// FetchState fetches peer's exported state snapshot for zone through
// the node's authenticated transport. A standby's bootstrap uses it to
// pull from its primary, and the scrubber's repair-from-replica path
// uses it in the opposite direction: a primary whose cold storage
// failed re-verification pulls an independent copy back from its
// replica.
func (n *Node) FetchState(ctx context.Context, peer, zone string) (applied, epoch uint64, state []byte, err error) {
	resp, err := n.get(ctx, peer+"/cluster/state/"+url.PathEscape(zone))
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, 0, nil, fmt.Errorf("cluster: fetch state %s from %s: status %d", zone, peer, resp.StatusCode)
	}
	var snap stateSnapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&snap); err != nil {
		return 0, 0, nil, fmt.Errorf("cluster: fetch state %s from %s: %w", zone, peer, err)
	}
	return snap.Applied, snap.Epoch, snap.State, nil
}
