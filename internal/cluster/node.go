package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"sync"
	"time"

	"radloc/internal/obs"
)

// Role is a zone's replication role on one node.
type Role string

const (
	// RolePrimary accepts writes for the zone and serves its WAL to
	// the standby.
	RolePrimary Role = "primary"
	// RoleStandby replicates from the primary and serves reads only.
	RoleStandby Role = "standby"
)

// ErrDraining is returned by AdmitWrite while a zone is draining
// ahead of a migration cutover: writes are refused (503 + Retry-After
// at the HTTP boundary) so the standby can reach the final head.
var ErrDraining = errors.New("cluster: zone draining")

// ErrStaleEpoch is returned when a request carries an epoch below the
// zone's current one — the sender was demoted (possibly without
// knowing it) and must not be obeyed.
var ErrStaleEpoch = errors.New("cluster: stale epoch")

// NotPrimaryError is returned by AdmitWrite when this node is standby
// for the zone. Primary, when known, is the base URL writes should be
// redirected to (307); empty means refuse with 503.
type NotPrimaryError struct {
	// Zone is the zone the write was addressed to.
	Zone string
	// Primary is the current write owner's base URL, if known.
	Primary string
}

// Error implements error.
func (e *NotPrimaryError) Error() string {
	if e.Primary == "" {
		return fmt.Sprintf("cluster: not primary for zone %q", e.Zone)
	}
	return fmt.Sprintf("cluster: not primary for zone %q (primary %s)", e.Zone, e.Primary)
}

// Options configures a Node.
type Options struct {
	// Self is this node's own base URL as peers reach it
	// ("http://host:port"). Used to recognize itself in the routing
	// table. Required.
	Self string
	// Token, when non-empty, is the bearer token required on every
	// /cluster endpoint and attached to every outgoing pull.
	Token string
	// Resolver finds the backend for a zone. Required.
	Resolver BackendResolver
	// Epochs persists per-zone fencing epochs (default MemEpochStore).
	Epochs EpochStore
	// RouteStore, when non-nil, persists the learned routing table so
	// a rebooted node remembers zone ownership without re-probing (nil
	// keeps the table in memory only; the package's tests run so).
	RouteStore RouteStore
	// HTTP performs the standby's pulls (default http.DefaultTransport).
	HTTP http.RoundTripper
	// PullInterval is the standby's idle poll period (default 500ms).
	// A pull that learns it is still behind loops again immediately.
	PullInterval time.Duration
	// PullBatch caps records per pull (default 4096).
	PullBatch int
	// Drop, when non-nil, releases a zone's local resources after its
	// ownership migrates away (the daemon closes the zone's engine).
	Drop func(zone string) error
	// Metrics receives the node's radloc_repl_* and radloc_cluster_*
	// collectors; nil gets a private registry.
	Metrics *obs.Registry
	// Log, when non-nil, receives role transitions and replication
	// errors.
	Log *log.Logger
}

// zoneState is one zone's replication state on this node. All fields
// are guarded by Node.mu.
type zoneState struct {
	name     string
	role     Role
	epoch    uint64
	draining bool

	// starts is the known epoch-start history (ascending by epoch),
	// used to compute divergence floors for pullers at older epochs.
	// Every entry is at or below the true first offset of its epoch,
	// so floors derived from it only ever widen the quarantine.
	starts []EpochStart

	// primaryURL is where writes should go when role is standby.
	primaryURL string

	// acked is the highest offset the replica has durably applied —
	// primary-side, learned from the from= of each pull.
	acked uint64

	// Standby-side pull progress.
	applied      uint64 // local WAL head after the last apply
	head         uint64 // primary's WAL head from the last hello/end
	caughtUp     bool
	lastCaughtUp time.Time
	lastErr      string

	cancel context.CancelFunc // stops the replica loop; nil when none runs
}

// Node is one radlocd's membership in the cluster: the set of zones
// it is primary or standby for, their epochs, and the replica
// goroutines pulling WAL for its standby zones. All methods are safe
// for concurrent use.
type Node struct {
	opts Options
	met  *nodeMetrics

	mu      sync.Mutex
	routes  Routes
	zones   map[string]*zoneState
	peersFn func() []PeerView // failure detector's view; see SetPeersFunc
	closed  bool

	wg sync.WaitGroup
}

// NewNode builds a node. Replication starts when SetRoutes assigns it
// a standby role for some zone.
func NewNode(opts Options) (*Node, error) {
	if opts.Self == "" {
		return nil, errors.New("cluster: Options.Self is required")
	}
	if opts.Resolver == nil {
		return nil, errors.New("cluster: Options.Resolver is required")
	}
	if opts.Epochs == nil {
		opts.Epochs = &MemEpochStore{}
	}
	if opts.HTTP == nil {
		opts.HTTP = http.DefaultTransport
	}
	if opts.PullInterval <= 0 {
		opts.PullInterval = 500 * time.Millisecond
	}
	if opts.PullBatch <= 0 {
		opts.PullBatch = 4096
	}
	return &Node{
		opts:  opts,
		met:   newNodeMetrics(obs.Or(opts.Metrics)),
		zones: make(map[string]*zoneState),
	}, nil
}

func (n *Node) logf(format string, args ...any) {
	if n.opts.Log != nil {
		n.opts.Log.Printf(format, args...)
	}
}

// zoneFor returns (creating if needed) the zone's state. The routing
// table decides the initial role: primary when the route names Self
// (or there is no route — standalone zones are owned locally),
// standby when the route names another node. Caller must hold n.mu.
func (n *Node) zoneFor(name string) (*zoneState, error) {
	if zs, ok := n.zones[name]; ok {
		return zs, nil
	}
	meta, err := n.opts.Epochs.Load(name)
	if err != nil {
		return nil, fmt.Errorf("cluster: load epoch for %q: %w", name, err)
	}
	if meta.Epoch == 0 {
		meta.Epoch = 1
	}
	if err := meta.Check(); err != nil {
		return nil, fmt.Errorf("cluster: epoch for %q: %w", name, err)
	}
	zs := &zoneState{name: name, role: RolePrimary, epoch: meta.Epoch, starts: meta.Starts}
	if rt, ok := n.routes.Zones[name]; ok && rt.Primary != n.opts.Self {
		zs.role = RoleStandby
		zs.primaryURL = rt.Primary
		zs.lastCaughtUp = time.Now()
	}
	n.zones[name] = zs
	n.met.roleChanged(name, zs.role == RolePrimary, zs.epoch)
	if zs.role == RoleStandby {
		n.startReplicaLocked(zs)
	}
	return zs, nil
}

// maxEpochStarts bounds the persisted epoch-start history. When the
// list would grow past it, the two oldest entries merge into one
// carrying the lower start — floors for very old pullers stay
// conservative instead of losing coverage.
const maxEpochStarts = 16

// hasStart reports whether the history has an entry for epoch.
func hasStart(starts []EpochStart, epoch uint64) bool {
	for _, s := range starts {
		if s.Epoch == epoch {
			return true
		}
	}
	return false
}

// recordStart inserts an epoch-start entry, keeping the list sorted
// and unique by epoch. An existing entry is only ever lowered — a
// lower start is always at least as safe. Overflow merges the two
// oldest entries into the higher epoch with the lower start.
func recordStart(starts []EpochStart, e EpochStart) []EpochStart {
	for i, s := range starts {
		if s.Epoch == e.Epoch {
			if e.Start < s.Start {
				starts[i].Start = e.Start
			}
			return starts
		}
	}
	starts = append(starts, e)
	sort.Slice(starts, func(a, b int) bool { return starts[a].Epoch < starts[b].Epoch })
	for len(starts) > maxEpochStarts {
		if starts[1].Start > starts[0].Start {
			starts[1].Start = starts[0].Start
		}
		starts = starts[1:]
	}
	return starts
}

// divergenceFloorLocked computes the lowest offset that may carry
// writes from an epoch newer than reqEpoch. A puller still holding
// records at or above it has a diverged suffix. Unknown history
// degrades to floor 0 (full re-seed). Caller holds n.mu.
func (n *Node) divergenceFloorLocked(zs *zoneState, reqEpoch uint64) uint64 {
	if zs.epoch <= reqEpoch {
		return 0
	}
	floor, found := uint64(0), false
	for _, s := range zs.starts {
		if s.Epoch > reqEpoch && (!found || s.Start < floor) {
			floor, found = s.Start, true
		}
	}
	return floor
}

// epochMetaLocked snapshots a zone's persistable epoch state. Caller
// holds n.mu.
func epochMetaLocked(zs *zoneState) EpochMeta {
	return EpochMeta{Epoch: zs.epoch, Starts: append([]EpochStart(nil), zs.starts...)}
}

// saveRoutes persists the routing table snapshot when a store is
// configured. Failures are logged, not fatal — the table is
// re-learnable from peers.
func (n *Node) saveRoutes(r Routes) {
	if n.opts.RouteStore == nil {
		return
	}
	if err := n.opts.RouteStore.Save(r); err != nil {
		n.logf("cluster: persist routes: %v", err)
	}
}

// SetRoutes installs the routing table and instantiates state for
// every routed zone: standby zones start their replica loops
// immediately so they are warm before the first failover. Roles of
// zones that already exist locally are left alone — routes seed
// roles, they never demote a live primary (that is Demote's job, with
// its epoch check).
func (n *Node) SetRoutes(r Routes) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return errors.New("cluster: node closed")
	}
	// Deep-copy: the node mutates its table on promotion and route
	// learning, and the caller's map must not see (or cause) that.
	n.routes = r.Clone()
	for _, name := range r.ZoneNames() {
		if _, err := n.zoneFor(name); err != nil {
			return err
		}
	}
	return nil
}

// Routes returns the current routing table, with this node's live
// primary zones asserted at their current epochs — so peers probing
// /cluster/routes learn ownership even for zones the static table
// never mentioned, and every promotion's epoch bump propagates.
func (n *Node) Routes() Routes {
	n.mu.Lock()
	defer n.mu.Unlock()
	cp := n.routes.Clone()
	for name, zs := range n.zones {
		if zs.role != RolePrimary {
			continue
		}
		cur, ok := cp.Zones[name]
		if ok && cur.Epoch >= zs.epoch && cur.Primary == n.opts.Self {
			continue
		}
		if ok && cur.Epoch >= zs.epoch {
			// A newer assertion names someone else; report the table's
			// view — this node is a stale primary about to be fenced.
			continue
		}
		st := ""
		if ok {
			if cur.Standby != "" && cur.Standby != n.opts.Self {
				st = cur.Standby
			} else if cur.Primary != n.opts.Self {
				st = cur.Primary
			}
		}
		cp.Zones[name] = Route{Primary: n.opts.Self, Standby: st, Epoch: zs.epoch}
	}
	return cp
}

// AdmitWrite decides whether this node may accept a write for the
// zone right now: nil for a live primary, ErrDraining mid-cutover,
// NotPrimaryError (with redirect target when known) for a standby.
func (n *Node) AdmitWrite(zone string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	zs, err := n.zoneFor(zone)
	if err != nil {
		return err
	}
	if zs.role != RolePrimary {
		return &NotPrimaryError{Zone: zone, Primary: zs.primaryURL}
	}
	if zs.draining {
		return ErrDraining
	}
	return nil
}

// Promote makes this node primary for the zone: the replica loop (if
// any) stops, the epoch is bumped and persisted — fencing out the old
// primary — the new epoch's WAL start offset is recorded for future
// divergence floors, the routing table asserts the new ownership, and
// a checkpoint seals the takeover. Idempotent on an already-primary
// zone (no epoch bump).
func (n *Node) Promote(zone string) (uint64, error) {
	b, berr := n.opts.Resolver(zone)

	n.mu.Lock()
	zs, err := n.zoneFor(zone)
	if err != nil {
		n.mu.Unlock()
		return 0, err
	}
	if zs.role == RolePrimary {
		epoch := zs.epoch
		n.mu.Unlock()
		return epoch, nil
	}
	if zs.cancel != nil {
		zs.cancel()
		zs.cancel = nil
	}
	former := zs.primaryURL
	zs.role = RolePrimary
	zs.draining = false
	zs.primaryURL = ""
	zs.epoch++
	epoch := zs.epoch
	if berr == nil {
		// The local head at promotion is the first offset that can
		// carry this epoch's writes: everything below it replicated
		// from the old primary, everything at or above is new history.
		zs.starts = recordStart(zs.starts, EpochStart{Epoch: epoch, Start: b.Offset()})
	} else {
		zs.starts = recordStart(zs.starts, EpochStart{Epoch: epoch, Start: 0})
	}
	meta := epochMetaLocked(zs)
	if n.routes.Zones == nil {
		n.routes.Zones = make(map[string]Route)
	}
	n.routes.Zones[zone] = Route{Primary: n.opts.Self, Standby: former, Epoch: epoch}
	routesCp := n.routes.Clone()
	n.met.roleChanged(zone, true, epoch)
	n.mu.Unlock()

	n.saveRoutes(routesCp)
	if err := n.opts.Epochs.Save(zone, meta); err != nil {
		return epoch, fmt.Errorf("cluster: persist epoch for %q: %w", zone, err)
	}
	if berr != nil {
		return epoch, berr
	}
	if err := b.Checkpoint(); err != nil {
		n.logf("cluster: checkpoint after promoting %q: %v", zone, err)
	}
	n.logf("cluster: promoted to primary for zone %q at epoch %d", zone, epoch)
	return epoch, nil
}

// Demote makes this node standby for the zone at the given epoch,
// replicating from primaryURL (when non-empty). An epoch below the
// zone's current one is refused with ErrStaleEpoch — a partitioned
// old primary cannot talk this node out of a newer promotion. An
// epoch above the current one is adopted with a conservative start of
// 0 (the operator vouched for it; the node has not verified where the
// new history began).
func (n *Node) Demote(zone string, epoch uint64, primaryURL string) error {
	n.mu.Lock()
	zs, err := n.zoneFor(zone)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	if epoch < zs.epoch {
		n.mu.Unlock()
		n.met.fenced()
		return fmt.Errorf("%w: zone %q at epoch %d, demote carries %d", ErrStaleEpoch, zone, zs.epoch, epoch)
	}
	zs.role = RoleStandby
	zs.draining = false
	if epoch > zs.epoch {
		zs.starts = recordStart(zs.starts, EpochStart{Epoch: epoch, Start: 0})
	}
	zs.epoch = epoch
	zs.primaryURL = primaryURL
	zs.lastCaughtUp = time.Now()
	zs.caughtUp = false
	meta := epochMetaLocked(zs)
	var routesCp Routes
	if primaryURL != "" {
		if n.routes.Zones == nil {
			n.routes.Zones = make(map[string]Route)
		}
		n.routes.Zones[zone] = Route{Primary: primaryURL, Standby: n.opts.Self, Epoch: epoch}
		routesCp = n.routes.Clone()
	}
	n.met.roleChanged(zone, false, epoch)
	if primaryURL != "" && zs.cancel == nil {
		n.startReplicaLocked(zs)
	}
	n.mu.Unlock()
	if routesCp.Zones != nil {
		n.saveRoutes(routesCp)
	}
	if err := n.opts.Epochs.Save(zone, meta); err != nil {
		return fmt.Errorf("cluster: persist epoch for %q: %w", zone, err)
	}
	n.logf("cluster: demoted to standby for zone %q at epoch %d (primary %q)", zone, epoch, primaryURL)
	return nil
}

// stepDownLocked turns a primary into a standby without touching its
// epoch. This is the fencing path for a node that just learned it was
// superseded (a newer-epoch pull, a higher-epoch route assertion):
// the epoch must stay at its old value so the next pull still carries
// it and the new primary's divergence floor applies to whatever this
// node wrote while isolated. Caller holds n.mu.
func (n *Node) stepDownLocked(zs *zoneState, primaryURL string) {
	if zs.cancel != nil {
		zs.cancel()
		zs.cancel = nil
	}
	zs.role = RoleStandby
	zs.draining = false
	zs.primaryURL = primaryURL
	zs.caughtUp = false
	zs.lastCaughtUp = time.Now()
	n.met.roleChanged(zs.name, false, zs.epoch)
	if primaryURL != "" {
		n.startReplicaLocked(zs)
	}
}

// stepDown is stepDownLocked for callers not holding n.mu.
func (n *Node) stepDown(zone, primaryURL string) {
	n.mu.Lock()
	zs, err := n.zoneFor(zone)
	if err != nil {
		n.mu.Unlock()
		n.logf("cluster: step down %q: %v", zone, err)
		return
	}
	if zs.role == RolePrimary {
		n.stepDownLocked(zs, primaryURL)
	} else if primaryURL != "" && zs.primaryURL != primaryURL {
		zs.primaryURL = primaryURL
		if zs.cancel == nil {
			n.startReplicaLocked(zs)
		}
	}
	epoch := zs.epoch
	n.mu.Unlock()
	n.logf("cluster: stepped down for zone %q at epoch %d", zone, epoch)
}

// LearnRoutes merges per-zone route assertions into the node's table:
// for each zone, the assertion with the higher epoch wins (ties keep
// the current entry, so tables converge instead of thrashing). A
// learned entry naming another node as primary at a higher epoch than
// this node's own makes a local primary step down — keeping its epoch,
// so the divergence check runs before it adopts the new history — and
// re-aims a local standby's replica loop. Self-assertions never
// promote: promotion only happens through Promote's fencing path.
// Returns whether the table changed; changes are persisted.
func (n *Node) LearnRoutes(r Routes) bool {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return false
	}
	changed := false
	for name, rt := range r.Zones {
		if rt.Primary == "" {
			continue
		}
		if n.routes.Zones == nil {
			n.routes.Zones = make(map[string]Route)
		}
		cur, ok := n.routes.Zones[name]
		if ok && rt.Epoch <= cur.Epoch {
			continue
		}
		n.routes.Zones[name] = rt
		changed = true
		zs, live := n.zones[name]
		if !live || rt.Primary == n.opts.Self {
			continue
		}
		if zs.role == RolePrimary && rt.Epoch > zs.epoch {
			n.logf("cluster: zone %q superseded at epoch %d by %s (local epoch %d); stepping down",
				name, rt.Epoch, rt.Primary, zs.epoch)
			n.stepDownLocked(zs, rt.Primary)
		} else if zs.role == RoleStandby && zs.primaryURL != rt.Primary {
			zs.primaryURL = rt.Primary
			if zs.cancel == nil {
				n.startReplicaLocked(zs)
			}
		}
	}
	var routesCp Routes
	if changed {
		routesCp = n.routes.Clone()
	}
	n.mu.Unlock()
	if changed {
		n.saveRoutes(routesCp)
	}
	return changed
}

// SetDraining marks a primary zone as draining (writes refused with
// Retry-After) or lifts the mark. Draining a standby is an error.
func (n *Node) SetDraining(zone string, draining bool) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	zs, err := n.zoneFor(zone)
	if err != nil {
		return err
	}
	if zs.role != RolePrimary {
		return &NotPrimaryError{Zone: zone, Primary: zs.primaryURL}
	}
	zs.draining = draining
	n.logf("cluster: zone %q draining=%v", zone, draining)
	return nil
}

// Release completes a migration on the old primary: the zone becomes
// standby pointing at its new owner and local resources are dropped
// via Options.Drop. Safe to skip when the old primary is dead — the
// standby's promotion already fenced it out.
func (n *Node) Release(zone string, to string) error {
	n.mu.Lock()
	zs, err := n.zoneFor(zone)
	if err != nil {
		n.mu.Unlock()
		return err
	}
	if zs.cancel != nil {
		zs.cancel()
		zs.cancel = nil
	}
	zs.role = RoleStandby
	zs.draining = false
	zs.primaryURL = to
	zs.caughtUp = false
	n.met.roleChanged(zone, false, zs.epoch)
	var routesCp Routes
	if to != "" {
		if n.routes.Zones == nil {
			n.routes.Zones = make(map[string]Route)
		}
		n.routes.Zones[zone] = Route{Primary: to, Standby: n.opts.Self, Epoch: zs.epoch}
		routesCp = n.routes.Clone()
	}
	n.mu.Unlock()
	if routesCp.Zones != nil {
		n.saveRoutes(routesCp)
	}
	n.logf("cluster: released zone %q to %q", zone, to)
	if n.opts.Drop != nil {
		return n.opts.Drop(zone)
	}
	return nil
}

// recordAck notes the replica's durable watermark from a pull's from=
// parameter and parks the WAL retention floor there.
func (n *Node) recordAck(zone string, b Backend, from uint64) {
	n.mu.Lock()
	zs, err := n.zoneFor(zone)
	if err == nil && from > zs.acked {
		zs.acked = from
	}
	n.mu.Unlock()
	if err == nil {
		n.met.ackedOffset.With(zone).Set(float64(from))
		b.SetRetainFloor(from)
	}
}

// ZoneStatus is one zone's replication status as reported by Status
// and the /cluster/status endpoint.
type ZoneStatus struct {
	// Zone is the zone name.
	Zone string `json:"zone"`
	// Role is primary or standby.
	Role Role `json:"role"`
	// Epoch is the zone's current fencing epoch.
	Epoch uint64 `json:"epoch"`
	// Draining reports a primary refusing writes ahead of cutover.
	Draining bool `json:"draining,omitempty"`
	// Primary is the write owner's URL when this node is standby.
	Primary string `json:"primary,omitempty"`
	// Head is the local WAL head (primary) or the remote head as of
	// the last pull (standby).
	Head uint64 `json:"head"`
	// Applied is the standby's local WAL head.
	Applied uint64 `json:"applied,omitempty"`
	// Acked is the replica's durable watermark as seen by a primary.
	Acked uint64 `json:"acked,omitempty"`
	// LagRecords is head - applied on a standby.
	LagRecords uint64 `json:"lagRecords,omitempty"`
	// LagSeconds is how long the standby has been behind.
	LagSeconds float64 `json:"lagSeconds,omitempty"`
	// CaughtUp reports applied == head as of the last pull.
	CaughtUp bool `json:"caughtUp"`
	// LastError is the most recent pull failure, cleared on success.
	LastError string `json:"lastError,omitempty"`
}

// Status reports every known zone's replication state, sorted by
// zone name.
func (n *Node) Status() []ZoneStatus {
	n.mu.Lock()
	defer n.mu.Unlock()
	now := time.Now()
	out := make([]ZoneStatus, 0, len(n.zones))
	for _, zs := range n.zones {
		st := ZoneStatus{
			Zone:      zs.name,
			Role:      zs.role,
			Epoch:     zs.epoch,
			Draining:  zs.draining,
			Primary:   zs.primaryURL,
			CaughtUp:  zs.role == RolePrimary || zs.caughtUp,
			LastError: zs.lastErr,
		}
		if zs.role == RolePrimary {
			st.Acked = zs.acked
			if b, err := n.opts.Resolver(zs.name); err == nil {
				st.Head = b.Offset()
			}
		} else {
			st.Head = zs.head
			st.Applied = zs.applied
			if zs.head > zs.applied {
				st.LagRecords = zs.head - zs.applied
			}
			if !zs.caughtUp {
				st.LagSeconds = now.Sub(zs.lastCaughtUp).Seconds()
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Zone < out[b].Zone })
	return out
}

// Ready reports whether every standby zone with a live replica loop
// has caught up to its primary at least once — the readiness gate
// /readyz consults, so a freshly booted standby is not marked ready
// while it is still replaying a backlog.
func (n *Node) Ready() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, zs := range n.zones {
		if zs.role == RoleStandby && zs.cancel != nil && !zs.caughtUp {
			return false
		}
	}
	return true
}

// Close stops every replica loop and waits for them to exit.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	for _, zs := range n.zones {
		if zs.cancel != nil {
			zs.cancel()
			zs.cancel = nil
		}
	}
	n.mu.Unlock()
	n.wg.Wait()
}
