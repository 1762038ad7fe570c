package node

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"radloc/internal/cluster"
	"radloc/internal/fusion"
	"radloc/internal/obs"
	"radloc/internal/vfs"
	"radloc/internal/zone"
)

// zoneSet owns the daemon's sharded runtime: the zone manager plus the
// per-zone durability behind its factory. Every zone gets its own
// fusion engine (built by Config.engine against a zone-labeled metrics
// view), its own WAL directory and checkpoint namespace, and — through
// zone.Resources — its own checkpoint cadence and final-checkpoint
// close hook, all driven from the zone's single-writer event loop.
//
// WAL layout: the default zone lives at the WAL root itself — the
// exact pre-sharding layout, so an existing deployment's state
// recovers in place — and each named zone under <root>/zones/<name>.
// Zone names pass the wire grammar (no path separators, no dots, no
// "..") before they ever touch the filesystem.
type zoneSet struct {
	manager *zone.Manager
	// cfg is the node's config: the WAL root ("" = durability off) and
	// policy, the engine shape and the log every zone shares.
	cfg *Config
	// fs carries every zone's WAL, checkpoints and stores.
	fs vfs.FS
	// reg is the process registry; each zone's engine, WAL and
	// checkpointer register on reg.With("zone", name), so the existing
	// families gain a zone label instead of new names.
	reg *obs.Registry

	// bootLogs, set only while recoverZones runs, maps each zone being
	// recovered to the buffer its recovery lines go to.
	bootLogs map[string]io.Writer

	// clusterNode, when non-nil, is the cluster membership this node
	// participates in — installed late by New (the node needs the
	// zoneSet's resolver first). The scrubber's repair-from-replica
	// path goes through it.
	clusterNode *cluster.Node

	// pipe is the zone set's single write path: pipe-mode records, HTTP
	// batches and replicated records all mutate engines through it.
	pipe *WritePipeline
}

// newZoneSet builds n's sharded runtime over fsys. No zones exist
// until recoverZones or the first routed batch creates them.
func newZoneSet(n *Node, fsys vfs.FS) (*zoneSet, error) {
	zs := &zoneSet{cfg: &n.cfg, fs: fsys, reg: n.reg}
	m, err := zone.NewManager(zone.Options{
		Factory:   zs.factory,
		MaxZones:  n.cfg.MaxZones,
		IdleAfter: n.cfg.ZoneIdle,
		Metrics:   n.reg,
	})
	if err != nil {
		return nil, err
	}
	zs.manager = m
	zs.pipe = &WritePipeline{zs: zs}
	return zs, nil
}

// zoneWalDir maps a zone name to its durability directory.
func (zs *zoneSet) zoneWalDir(name string) string {
	if name == zone.DefaultZone {
		return zs.cfg.WALDir
	}
	return filepath.Join(zs.cfg.WALDir, "zones", name)
}

// factory builds one zone's resources: a fresh engine on a
// zone-labeled metrics view, recovered from the zone's own WAL
// directory when durability is on, with the checkpoint cadence and
// the final checkpoint wired into the zone's event loop. It runs both
// at boot (recoverZones) and lazily when a batch names a novel zone —
// including a zone recreated after idle eviction, which recovers from
// its final checkpoint as if the process had restarted.
func (zs *zoneSet) factory(name string) (zone.Resources, error) {
	met := zs.reg.With("zone", name)
	if zs.cfg.WALDir == "" {
		engine, err := zs.cfg.engine(nil, met)
		if err != nil {
			return zone.Resources{}, err
		}
		return zone.Resources{Engine: engine}, nil
	}
	dir := zs.zoneWalDir(name)
	if err := zs.fs.MkdirAll(dir, 0o755); err != nil {
		return zone.Resources{}, err
	}
	bootw := zs.cfg.Log
	if w, ok := zs.bootLogs[name]; ok {
		bootw = w
	}
	engine, d, err := openDurable(dir, zs.fs, zs.cfg.Fsync, zs.cfg.CheckpointEvery, zs.cfg.WALSegment,
		func(j fusion.Journal) (*fusion.Engine, error) { return zs.cfg.engine(j, met) },
		met, bootw)
	if err != nil {
		return zone.Resources{}, err
	}
	d.logw = zs.cfg.Log // recovery lines went to bootw; storage notes go to the daemon log
	return zone.Resources{
		Engine:     engine,
		AfterBatch: d.maybeCheckpoint,
		Close:      d.close,
		Aux:        d,
	}, nil
}

// recoverZones brings up the default zone plus every named zone with
// state on disk, so boot replays all recorded zones instead of
// leaving their recovery to first contact. Zones recover concurrently,
// up to GOMAXPROCS at a time, with the outcome of recovering them one
// by one in name order (default first):
//   - the zones past -max-zones are the sorted-name suffix, fixed
//     before any recovery starts; each is left on disk with a note and
//     its factory recovers it on first contact once other zones have
//     been evicted;
//   - each zone's recovery lines are buffered and written in that order
//     once every zone has finished;
//   - on failure the first failing zone in that order is reported.
//     Zones that did recover stay live for the caller to close.
func (zs *zoneSet) recoverZones() error {
	boot := []*bootZone{{name: zone.DefaultZone}}
	if zs.cfg.WALDir != "" {
		entries, err := zs.fs.ReadDir(filepath.Join(zs.cfg.WALDir, "zones"))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		var names []string
		for _, e := range entries {
			if e.IsDir() {
				names = append(names, e.Name())
			}
		}
		sort.Strings(names)
		room := zs.manager.MaxZones() - 1
		for _, name := range names {
			b := &bootZone{name: name}
			switch {
			case zone.ValidateName(name) != nil || name == zone.DefaultZone:
				b.note = fmt.Sprintf("radlocd: ignoring zone directory %q (not a usable zone name)\n", name)
			case room == 0:
				b.note = fmt.Sprintf("radlocd: zone %q left on disk (over -max-zones); it recovers on first contact\n", name)
			default:
				room--
			}
			boot = append(boot, b)
		}
	}

	zs.bootLogs = make(map[string]io.Writer)
	for _, b := range boot {
		if b.note == "" {
			zs.bootLogs[b.name] = &b.log
		}
	}
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	var failed atomic.Bool
	for _, b := range boot {
		if b.note != "" {
			continue
		}
		sem <- struct{}{}
		if failed.Load() {
			// Every zone not yet started sorts after the failure already
			// in hand, so it could not be the one reported.
			break
		}
		wg.Add(1)
		go func() {
			defer func() { <-sem; wg.Done() }()
			if _, b.err = zs.manager.Get(b.name); b.err != nil {
				failed.Store(true)
			}
		}()
	}
	wg.Wait()
	zs.bootLogs = nil

	for _, b := range boot {
		io.WriteString(zs.cfg.Log, b.note)
		zs.cfg.Log.Write(b.log.Bytes())
		if b.err != nil {
			return fmt.Errorf("recover zone %q: %w", b.name, b.err)
		}
	}
	return nil
}

// bootZone is one zone directory's part in recoverZones.
type bootZone struct {
	name string
	note string       // non-empty: not recovered at boot; the line says why
	log  bytes.Buffer // the zone's recovery lines, held for ordered output
	err  error
}

// defaultZone returns the always-live default zone. recoverZones runs
// before anything can ask for it, so absence is a programming error.
func (zs *zoneSet) defaultZone() *zone.Zone {
	z, ok := zs.manager.Lookup(zone.DefaultZone)
	if !ok {
		panic("radlocd: default zone missing (recoverZones not run)")
	}
	return z
}

// settle runs Engine.Settle on a live zone's event loop; see
// Node.Settle.
func (zs *zoneSet) settle(ctx context.Context, name string) error {
	z, ok := zs.manager.Lookup(name)
	if !ok {
		return fmt.Errorf("no such zone %q", name)
	}
	return z.Do(ctx, (*fusion.Engine).Settle)
}

// close shuts every zone down: mailboxes drained, reorder-gate tails
// flushed, final checkpoints written, WALs closed.
func (zs *zoneSet) close() error {
	if zs == nil {
		return nil
	}
	return zs.manager.Close()
}

// zoneDurable unwraps the durability handle a zone's factory attached;
// nil when durability is off.
func zoneDurable(z *zone.Zone) *durable {
	d, _ := z.Aux().(*durable)
	return d
}

// durableZone is a live zone with its durability handle.
type durableZone struct {
	z *zone.Zone
	d *durable
}

// durableZones lists the live zones with durability on, sorted by
// name: the zones the storage probe, /readyz and the scrubber visit.
func (zs *zoneSet) durableZones() []durableZone {
	var out []durableZone
	for _, name := range zs.manager.Names() {
		z, ok := zs.manager.Lookup(name)
		if !ok {
			continue
		}
		if d := zoneDurable(z); d != nil {
			out = append(out, durableZone{z, d})
		}
	}
	return out
}
