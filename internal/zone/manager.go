package zone

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"radloc/internal/fusion"
	"radloc/internal/obs"
)

// ErrZoneLimit is returned by Get/Submit when creating one more zone
// would exceed Options.MaxZones — the process-level bound on live
// engines. The HTTP boundary maps this to 503.
var ErrZoneLimit = errors.New("zone: zone limit reached")

// ErrBadName is returned for zone names outside the wire grammar:
// 1–64 characters of [a-z0-9_-], starting with a letter or digit.
var ErrBadName = errors.New("zone: bad zone name")

// ErrManagerClosed is returned once Close has run; no zone accepts
// further work.
var ErrManagerClosed = errors.New("zone: manager closed")

// ValidateName checks a zone name against the wire grammar
// (^[a-z0-9][a-z0-9_-]{0,63}$). Names double as WAL subdirectory and
// metric label values, so the grammar is deliberately narrow: no path
// separators, no dots, no upper case.
func ValidateName(name string) error {
	if len(name) == 0 || len(name) > 64 {
		return fmt.Errorf("%w: %q (want 1-64 chars of [a-z0-9_-])", ErrBadName, name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		case (c == '_' || c == '-') && i > 0:
		default:
			return fmt.Errorf("%w: %q (want 1-64 chars of [a-z0-9_-], leading alphanumeric)", ErrBadName, name)
		}
	}
	return nil
}

// Factory builds one zone's resources on first use (and again if the
// zone is recreated after eviction). It runs outside the manager's
// zone-table lock, so a slow build (WAL recovery) stalls only
// requests for that zone.
type Factory func(name string) (Resources, error)

// Options configures a Manager.
type Options struct {
	// Factory builds a zone's resources on demand. Required.
	Factory Factory
	// MaxZones caps the number of live zones (default 64). Get fails
	// with ErrZoneLimit rather than create one more.
	MaxZones int
	// IdleAfter evicts a zone that has not accepted a batch for this
	// long (checkpointing it first); 0 disables eviction. The default
	// zone is never evicted — see SweepIdle.
	IdleAfter time.Duration
	// Metrics, when non-nil, receives the manager's counters
	// (radloc_zone_active, _created_total, _evicted_total).
	Metrics *obs.Registry
}

// Manager is the zone registry: it creates zones lazily through the
// factory, bounds how many live at once, routes batches, and evicts
// idle zones. All methods are safe for concurrent use.
type Manager struct {
	opts Options

	mu     sync.Mutex
	zones  map[string]*Zone
	closed bool
	// pending marks names with a create or close in flight: Get waits
	// for the channel, then re-examines the table. Covering both
	// transitions with one map is what makes the eviction-vs-late-
	// measurement race safe — a submitter that lost its zone waits out
	// the close, then recreates.
	pending map[string]chan struct{}

	created, evicted *obs.Counter
}

// NewManager builds the registry. No zones exist until Get asks for
// them.
func NewManager(opts Options) (*Manager, error) {
	if opts.Factory == nil {
		return nil, errors.New("zone: Options.Factory is required")
	}
	if opts.MaxZones <= 0 {
		opts.MaxZones = 64
	}
	m := &Manager{
		opts:    opts,
		zones:   make(map[string]*Zone),
		pending: make(map[string]chan struct{}),
	}
	reg := obs.Or(opts.Metrics)
	m.created = reg.Counter("radloc_zone_created_total", "Zones created (including recreations after eviction).")
	m.evicted = reg.Counter("radloc_zone_evicted_total", "Zones evicted after their idle TTL, final checkpoint written.")
	reg.GaugeFunc("radloc_zone_active", "Live zones.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.zones))
	})
	return m, nil
}

// Get returns the named zone, creating it through the factory on
// first use. If the name is mid-close (eviction or shutdown racing
// this call), Get waits for the close to finish and recreates.
func (m *Manager) Get(name string) (*Zone, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	for {
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return nil, ErrManagerClosed
		}
		if z, ok := m.zones[name]; ok {
			m.mu.Unlock()
			return z, nil
		}
		if ch, ok := m.pending[name]; ok {
			m.mu.Unlock()
			<-ch
			continue
		}
		// Count in-flight creations against the cap too, or a burst of
		// novel names could overshoot it while factories run.
		if len(m.zones)+len(m.pending) >= m.opts.MaxZones {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: %d zones live", ErrZoneLimit, m.opts.MaxZones)
		}
		ch := make(chan struct{})
		m.pending[name] = ch
		m.mu.Unlock()

		res, err := m.opts.Factory(name)

		m.mu.Lock()
		delete(m.pending, name)
		var z *Zone
		if err == nil {
			z = newZone(name, res)
			m.zones[name] = z
			m.created.Inc()
		}
		m.mu.Unlock()
		close(ch)
		if err != nil {
			return nil, fmt.Errorf("zone: create %q: %w", name, err)
		}
		return z, nil
	}
}

// MaxZones is the live-zone cap in force (Options.MaxZones after
// defaulting).
func (m *Manager) MaxZones() int { return m.opts.MaxZones }

// Lookup returns the named zone if it is currently live — the
// read-path accessor: GET routes must not conjure zones into being.
func (m *Manager) Lookup(name string) (*Zone, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	z, ok := m.zones[name]
	return z, ok
}

// Names returns the live zone names, sorted.
func (m *Manager) Names() []string {
	m.mu.Lock()
	out := make([]string, 0, len(m.zones))
	for name := range m.zones {
		out = append(out, name)
	}
	m.mu.Unlock()
	sort.Strings(out)
	return out
}

// Submit routes one batch to the named zone, creating it if needed.
// If the zone closes between lookup and delivery (an eviction racing
// a late measurement), the batch is resubmitted against a recreated
// zone — the caller never sees ErrZoneClosed unless the race repeats
// implausibly. A full mailbox makes Submit wait, bounded by ctx;
// shedding load is the caller's job.
func (m *Manager) Submit(ctx context.Context, name string, ms []fusion.Meas) (fusion.BatchResult, error) {
	for attempt := 0; ; attempt++ {
		z, err := m.Get(name)
		if err != nil {
			return fusion.BatchResult{}, err
		}
		res, err := z.Submit(ctx, ms)
		if errors.Is(err, ErrZoneClosed) && attempt < 3 {
			continue
		}
		return res, err
	}
}

// Drop closes and removes one named zone regardless of idle time —
// mailbox drained, gate tail flushed, owner's Close hook run — used
// when a zone's ownership migrates to another node. The default zone
// is refused (legacy clients depend on it); a name that is not live
// is a no-op. The zone can be recreated by a later Get.
func (m *Manager) Drop(name string) error {
	if name == DefaultZone {
		return fmt.Errorf("zone: cannot drop %q", DefaultZone)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrManagerClosed
	}
	z, ok := m.zones[name]
	if !ok {
		m.mu.Unlock()
		return nil
	}
	delete(m.zones, name)
	m.pending[name] = make(chan struct{})
	m.mu.Unlock()
	return m.release(z)
}

// release closes a zone already moved from the live table to pending,
// then clears the pending marker, waking any Get waiting to recreate
// the name. It returns the zone's close error.
func (m *Manager) release(z *Zone) error {
	err := z.close()
	m.mu.Lock()
	ch := m.pending[z.name]
	delete(m.pending, z.name)
	m.mu.Unlock()
	close(ch)
	m.evicted.Inc()
	return err
}

// SweepIdle evicts every zone (except the default zone, whose
// reorder-gate state legacy clients depend on) that has been idle for
// Options.IdleAfter or longer, as measured at now: each victim is
// closed — mailbox drained, gate tail flushed, final checkpoint via
// the owner's Close hook — then released. Returns the evicted names,
// sorted. A no-op when IdleAfter is 0.
func (m *Manager) SweepIdle(now time.Time) []string {
	if m.opts.IdleAfter <= 0 {
		return nil
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	var victims []*Zone
	for name, z := range m.zones {
		if name == DefaultZone || z.IdleFor(now) < m.opts.IdleAfter {
			continue
		}
		delete(m.zones, name)
		m.pending[name] = make(chan struct{})
		victims = append(victims, z)
	}
	m.mu.Unlock()

	names := make([]string, 0, len(victims))
	for _, z := range victims {
		_ = m.release(z)
		names = append(names, z.name)
	}
	sort.Strings(names)
	return names
}

// Close shuts every zone down — mailboxes drained, gate tails
// flushed, final checkpoints written — and refuses further work. The
// first hook error is returned; all zones are closed regardless.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	zs := make([]*Zone, 0, len(m.zones))
	for _, z := range m.zones {
		zs = append(zs, z)
	}
	m.zones = make(map[string]*Zone)
	m.mu.Unlock()
	sort.Slice(zs, func(a, b int) bool { return zs[a].name < zs[b].name })
	var first error
	for _, z := range zs {
		if err := z.close(); err != nil && first == nil {
			first = fmt.Errorf("zone: close %q: %w", z.name, err)
		}
	}
	return first
}
