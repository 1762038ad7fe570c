// Package node assembles the radiation-fusion daemon as an embeddable
// component: one Node owns the sharded zone runtime (per-zone fusion
// engines behind single-writer event loops), the per-zone durability
// (WAL + checkpoints), cluster replication and write fencing, the
// unattended-failover promoter, the storage integrity scrubber, and
// the HTTP API — all constructed from a plain Config, with a
// Start/Shutdown lifecycle and an http.Handler that mounts in-process.
// The radlocd binary is a thin shell over Run; tests (and future
// multi-node harnesses) instantiate Nodes directly and wire them
// together with in-memory transports.
//
// Every write, whatever its entry point — pipe-mode stdin, HTTP
// measurements, replication — flows through one WritePipeline, so the
// ordering and error invariants (fence before admission, journal
// before apply, 507 on degraded storage) hold on all paths by
// construction. Each zone's event loop is the only code that touches
// its engine, its WAL and its checkpoint bookkeeping; nothing under it
// takes a lock. Code off the loop runs a short zone.Do operation or
// reads what the loop published — the snapshot after every operation,
// the checkpoint gauge, the storage state — so reads, /statez, /readyz
// and replication streams never wait for writers, nor writers for them.
package node

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"time"

	"radloc/internal/clock"
	"radloc/internal/cluster"
	"radloc/internal/failover"
	"radloc/internal/fusion"
	"radloc/internal/httpingest"
	"radloc/internal/obs"
	"radloc/internal/rng"
	"radloc/internal/scenario"
	"radloc/internal/track"
	"radloc/internal/vfs"
	"radloc/internal/wal"
)

// Config describes one node. Scenario is required; everything else
// has a working zero value (durability off, single node, defaults per
// subsystem). The field groups mirror the radlocd flag groups —
// cmd/radlocd is a flag-parsing shell over this struct.
type Config struct {
	// Scenario is the sensor deployment every zone's engine is built
	// from. Required.
	Scenario scenario.Scenario
	// Seed seeds each engine's localizer and the jitter of the storage
	// probe, the idle-zone janitor and the scrubber.
	Seed uint64
	// NoTracks disables confirmed-track maintenance over estimates.
	NoTracks bool
	// NoHealth disables the per-sensor health monitor.
	NoHealth bool
	// ReorderWindow overrides the sequence gate's reorder window in
	// rounds (0 = the engine's default).
	ReorderWindow int

	// Listen is the HTTP listen address for Run; empty selects
	// stdin/stdout pipe mode. Ignored by New — embedders mount
	// Handler themselves.
	Listen string
	// ReportEvery is the pipe-mode snapshot cadence in measurements
	// (0 = one sensor round).
	ReportEvery int

	// WALDir is the durability root for write-ahead logs and
	// checkpoints; empty disables durability.
	WALDir string
	// Fsync is the WAL fsync policy (zero value = always, the safest).
	Fsync wal.FsyncPolicy
	// CheckpointEvery checkpoints a zone every N journaled records
	// (0 = only at shutdown).
	CheckpointEvery int
	// WALSegment rotates WAL segments after this many records (0 = the
	// WAL's default).
	WALSegment int
	// StorageProbe is how often a degraded zone re-tests its WAL for
	// recovery, jittered ±20% (0 = only organic writes recover).
	StorageProbe time.Duration
	// ScrubInterval paces the background integrity scrubber (0 = off).
	ScrubInterval time.Duration

	// MaxZones caps concurrently live zones (0 = 64).
	MaxZones int
	// ZoneIdle evicts a named zone idle this long (0 = never). The
	// janitor checks every ZoneIdle/4 (at least 1s), jittered ±20%.
	ZoneIdle time.Duration

	// HTTPQueue bounds concurrently admitted ingest requests (0 = 64).
	HTTPQueue int
	// MaxBody bounds request bodies in bytes (0 = 1 MiB).
	MaxBody int64
	// RetryAfter is the hint on 429 responses (0 = 1s).
	RetryAfter time.Duration
	// Rate caps each sensor's sustained readings/sec (0 = off).
	Rate float64
	// Burst is the per-sensor token-bucket burst (0 = 4×Rate).
	Burst float64
	// ReadTimeout, WriteTimeout and IdleTimeout are the HTTP server's
	// slow-client guards (0 = 15s / 30s / 2m).
	ReadTimeout time.Duration
	// WriteTimeout bounds writing one response (0 = 30s).
	WriteTimeout time.Duration
	// IdleTimeout cuts idle keep-alive connections (0 = 2m).
	IdleTimeout time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool

	// ClusterSelf is this node's base URL as peers reach it; non-empty
	// enables cluster mode, which requires WALDir: the replication
	// stream is the WAL.
	ClusterSelf string
	// ClusterToken guards the /cluster endpoints and outgoing pulls.
	ClusterToken string
	// SeedRoutes, when non-nil, is the static zone-to-node routing
	// table installed at boot (the persisted learned table is applied
	// on top — highest epoch wins).
	SeedRoutes *cluster.Routes
	// ReplInterval is the standby's idle poll period between
	// replication pulls (0 = the cluster default).
	ReplInterval time.Duration
	// ReplBatch caps WAL records per replication pull (0 = default).
	ReplBatch int

	// Failover enables the probe-driven promoter (requires
	// ClusterSelf and Peers).
	Failover bool
	// Peers are the peer base URLs the failure detector probes.
	Peers []string
	// ProbeInterval is the base peer probe period (0 = 2s).
	ProbeInterval time.Duration
	// SuspectMisses is the consecutive probe misses before suspicion
	// (0 = 3).
	SuspectMisses int
	// HoldDown is the continuous-unreachability window before a
	// suspected peer is declared dead (0 = 10s).
	HoldDown time.Duration
	// MaxPromoteLag refuses unattended promotion above this
	// replication lag in records (0 = must be fully caught up).
	MaxPromoteLag uint64

	// FS is the filesystem seam all durability I/O goes through; nil
	// means the real filesystem metered onto the storage-fault
	// metrics. Tests inject vfs.Faulty here.
	FS vfs.FS
	// HTTP performs outgoing cluster pulls and failover probes
	// (nil = http.DefaultTransport). Tests inject an in-process fabric
	// here.
	HTTP http.RoundTripper
	// Metrics is the process registry every subsystem registers on;
	// nil gets a fresh registry with process metrics.
	Metrics *obs.Registry
	// Log receives recovery, checkpoint and cluster log lines (nil =
	// discard; radlocd passes stderr).
	Log io.Writer
}

// Node is one assembled daemon: zones, durability, cluster, failover,
// scrubber, write pipeline and HTTP API, owned together so they start
// and stop as a unit.
type Node struct {
	cfg    Config
	reg    *obs.Registry
	zs     *zoneSet
	clu    *cluster.Node
	prom   *failover.Promoter
	scr    *scrubber // nil while scrubbing is off
	ingest *httpingest.Handler
	mux    http.Handler

	startOnce sync.Once
	stopOnce  sync.Once
	stopBG    context.CancelFunc // cancels the background loops
	loops     sync.WaitGroup     // the background loops Start launched
	closeErr  error
}

// New assembles a node from cfg: it builds the zone runtime, recovers
// every zone with state on disk (synchronously — when New returns,
// the engines hold their pre-crash state), joins the cluster and
// starts standby replication if configured, and builds the HTTP
// handler. Background maintenance (janitor, storage probe, failover
// probes, scrubbing) waits for Start.
func New(cfg Config) (*Node, error) {
	// Refuse an invalid Config before any work: a refusal after zones
	// recovered would write final checkpoints for a boot that never was.
	// Each message names the radlocd flag beside the field.
	switch {
	case len(cfg.Scenario.Sensors) == 0:
		return nil, fmt.Errorf("node: Config.Scenario has no sensors")
	case cfg.ClusterSelf != "" && cfg.WALDir == "":
		return nil, fmt.Errorf("node: ClusterSelf (-cluster-self) requires WALDir (-wal-dir): the replication stream is the WAL")
	case cfg.Failover && cfg.ClusterSelf == "":
		return nil, fmt.Errorf("node: Failover (-failover) requires ClusterSelf (-cluster-self): the failure detector acts on the cluster layer")
	case cfg.Failover && len(cfg.Peers) == 0:
		return nil, fmt.Errorf("node: Failover (-failover) requires Peers (-cluster-peers): who to probe")
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
		obs.RegisterProcessMetrics(reg, time.Now())
	}
	n := &Node{cfg: cfg, reg: reg}

	// All durability I/O goes through the observed filesystem, so real
	// disk faults (ENOSPC, EIO) land on radloc_storage_faults_total
	// exactly like injected ones do in the chaos tests.
	fsys := cfg.FS
	if fsys == nil {
		fsys = vfs.Observe(vfs.OS{}, reg)
	}
	zs, err := newZoneSet(n, fsys)
	if err != nil {
		return nil, err
	}
	n.zs = zs
	// Recovery at boot: the default zone plus every named zone with
	// state on disk, each from its own WAL directory — newest valid
	// checkpoint plus WAL suffix replay through the live ingest path.
	if err := zs.recoverZones(); err != nil {
		zs.close()
		return nil, err
	}

	if cfg.ClusterSelf != "" {
		rstore := &fileRouteStore{dir: cfg.WALDir, fs: zs.fs, logw: cfg.Log}
		n.clu, err = cluster.NewNode(cluster.Options{
			Self:         cfg.ClusterSelf,
			Token:        cfg.ClusterToken,
			Resolver:     zs.clusterBackend,
			Epochs:       &fileEpochStore{zs: zs},
			RouteStore:   rstore,
			HTTP:         cfg.HTTP,
			PullInterval: cfg.ReplInterval,
			PullBatch:    cfg.ReplBatch,
			Drop:         zs.manager.Drop,
			Metrics:      reg,
			Log:          log.New(cfg.Log, "", log.LstdFlags),
		})
		if err != nil {
			zs.close()
			return nil, err
		}
		if cfg.SeedRoutes != nil {
			if err := n.clu.SetRoutes(*cfg.SeedRoutes); err != nil {
				n.clu.Close()
				zs.close()
				return nil, err
			}
		}
		// The persisted learned table is applied after the static seed:
		// its entries carry epochs, so anything this node learned before
		// its last shutdown overrides a stale seed (highest epoch wins),
		// while a fresh seed for a brand-new zone still lands.
		learned, err := rstore.Load()
		if err != nil {
			n.clu.Close()
			zs.close()
			return nil, err
		}
		if len(learned.Zones) > 0 {
			n.clu.LearnRoutes(learned)
		}
		// The scrubber's repair-from-replica path and the write
		// pipeline's fence go through the cluster node.
		zs.clusterNode = n.clu
	}
	if cfg.Failover {
		n.prom, err = failover.New(failover.Options{
			Node:          n.clu,
			Self:          cfg.ClusterSelf,
			Peers:         cfg.Peers,
			Token:         cfg.ClusterToken,
			HTTP:          cfg.HTTP,
			Interval:      cfg.ProbeInterval,
			Suspect:       cfg.SuspectMisses,
			HoldDown:      cfg.HoldDown,
			MaxPromoteLag: cfg.MaxPromoteLag,
			Metrics:       reg,
			Log:           log.New(cfg.Log, "", log.LstdFlags),
		})
		if err != nil {
			n.clu.Close()
			zs.close()
			return nil, err
		}
		// Publish the detector's world-view on /cluster/status, so an
		// operator reads suspicion state instead of inferring it from
		// logs.
		n.clu.SetPeersFunc(n.prom.Peers)
	}
	if cfg.WALDir != "" && cfg.ScrubInterval > 0 {
		n.scr = newScrubber(zs, reg, cfg.Log)
	}
	n.ingest = httpingest.New(zs.pipe.Submit, httpingest.Options{
		QueueDepth: cfg.HTTPQueue,
		MaxBody:    cfg.MaxBody,
		RetryAfter: cfg.RetryAfter,
		RatePerSec: cfg.Rate,
		Burst:      cfg.Burst,
		Metrics:    reg,
	})
	n.mux = newMux(n)
	return n, nil
}

// engine builds one zone's engine against the given journal. Every
// zone shares the deployment, the seed and the feature flags; met is
// that zone's labeled view of the process registry.
func (c *Config) engine(j fusion.Journal, met *obs.Registry) (*fusion.Engine, error) {
	fcfg := fusion.ScenarioConfig(c.Scenario, c.Seed)
	fcfg.Health.Disabled = c.NoHealth
	fcfg.Journal = j
	fcfg.ReorderWindow = c.ReorderWindow
	fcfg.Metrics = met
	fcfg.Localizer.Metrics = met
	if !c.NoTracks {
		fcfg.Tracking = &track.Config{}
	}
	return fusion.NewEngine(fcfg)
}

// Start launches the node's four background loops: the storage
// recovery probe, the idle-zone janitor, failover probing and the
// integrity scrubber. Each runs on its own goroutine, waits a jittered
// interval from its own named rng stream between ticks (clock.Every),
// and stops when ctx is done or Shutdown cancels it. Safe to call
// once; a Node that is only read from (or driven by tests
// tick-by-tick) may skip Start entirely.
func (n *Node) Start(ctx context.Context) {
	n.startOnce.Do(func() {
		ctx, n.stopBG = context.WithCancel(ctx)
		clk := clock.Real{}
		run := func(loop func(context.Context)) {
			n.loops.Add(1)
			go func() {
				defer n.loops.Done()
				loop(ctx)
			}()
		}
		every := func(interval time.Duration, stream string, tick func(context.Context)) {
			u := rng.NewNamed(n.cfg.Seed, stream).Float64
			run(func(ctx context.Context) { clock.Every(ctx, clk, interval, u, tick) })
		}
		if n.cfg.WALDir != "" && n.cfg.StorageProbe > 0 {
			// Degraded zones re-test their WAL so the node exits
			// read-only mode on its own once space frees, even with
			// every agent backed off.
			every(n.cfg.StorageProbe, "radlocd/storage-probe", n.zs.probeStorage)
		}
		if n.cfg.ZoneIdle > 0 {
			interval := max(n.cfg.ZoneIdle/4, time.Second)
			every(interval, "radlocd/zone-janitor", func(context.Context) {
				n.zs.manager.SweepIdle(clk.Now())
			})
		}
		if n.prom != nil {
			run(n.prom.Run)
		}
		if n.scr != nil {
			every(n.cfg.ScrubInterval, "scrub", n.scr.tick)
		}
	})
}

// Handler returns the node's HTTP API — the same mux radlocd serves —
// for mounting in-process: httptest servers, shared muxes, test
// fabrics.
func (n *Node) Handler() http.Handler { return n.mux }

// Pipeline returns the node's write pipeline, the single path every
// mutation takes. Embedders submit batches through it rather than
// touching engines directly.
func (n *Node) Pipeline() *WritePipeline { return n.zs.pipe }

// Settle ends a run for one live zone: on the zone's event loop it
// releases the reorder gate's held tail (the watermark will never
// advance again), journals and applies it, and then refreshes the
// estimates. Both run modes settle the default zone this way before
// their final snapshot. A failed journal write returns its error
// without refreshing and leaves the unjournaled rounds held, not
// applied, so calling Settle again once storage recovers loses nothing
// and refreshes once. Settle never creates a zone.
//
// The refresh itself is not journaled, and replay cannot reproduce it:
// it falls due at no reading. Shutdown's final checkpoint covers it,
// but a kill -9 between Settle and that checkpoint boots an engine one
// refresh behind the live one: its count of readings since the last
// refresh and its RNG position differ (DESIGN §6).
func (n *Node) Settle(ctx context.Context, zoneName string) error {
	return n.zs.settle(ctx, zoneName)
}

// Shutdown stops the node: it cancels the background loops and waits
// for them to return, then stops cluster replication, then closes
// every zone — mailboxes drained, reorder tails flushed, final
// checkpoints written, WALs closed. What each engine applied is what
// the next boot recovers. Idempotent; returns the first close error.
func (n *Node) Shutdown() error {
	n.stopOnce.Do(func() {
		if n.stopBG != nil {
			n.stopBG()
		}
		n.loops.Wait()
		if n.clu != nil {
			n.clu.Close()
		}
		n.closeErr = n.zs.close()
	})
	return n.closeErr
}

// ServePipe applies every NDJSON measurement from r, in input order,
// through the write pipeline, emitting snapshot lines to w on the
// configured cadence — radlocd's pipe mode, callable in-process. A
// producer faster than the engines waits on r; nothing is shed.
func (n *Node) ServePipe(ctx context.Context, r io.Reader, w io.Writer) error {
	every := n.cfg.ReportEvery
	if every <= 0 {
		every = len(n.cfg.Scenario.Sensors)
	}
	return servePipe(ctx, n.zs, r, w, every)
}

// Run assembles a node from cfg and drives it the way the radlocd
// binary does: HTTP mode when cfg.Listen is set (serving until ctx is
// cancelled, then draining gracefully), pipe mode over stdin/stdout
// otherwise — then shuts the node down, flushing final checkpoints.
func Run(ctx context.Context, cfg Config, stdin io.Reader, stdout io.Writer) error {
	if cfg.ClusterSelf != "" && cfg.Listen == "" {
		return fmt.Errorf("-cluster-self requires -listen (replication is served over HTTP)")
	}
	n, err := New(cfg)
	if err != nil {
		return err
	}
	n.Start(ctx)
	if cfg.Listen != "" {
		// stdout is the log channel in HTTP mode (the API is the data
		// channel); pipe mode reverses that, writing snapshots to stdout.
		err = n.serveHTTP(ctx, stdout)
	} else {
		err = n.ServePipe(ctx, stdin, stdout)
	}
	// Final checkpoints + WAL sync/close for every zone, even on a
	// serve error: what each engine applied is what the next boot
	// recovers.
	if cerr := n.Shutdown(); err == nil {
		err = cerr
	}
	return err
}
