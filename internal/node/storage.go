package node

import (
	"context"
	"fmt"
	"time"

	"radloc/internal/fusion"
)

// Degraded read-only mode.
//
// When a zone's WAL append fails (disk full, I/O error), radlocd does
// not crash and does not silently drop data: the failed append already
// vetoed the reading (durability before visibility), the fusion
// engine surfaced it as a JournalError, and the HTTP boundary answered
// 507 + Retry-After so the agent keeps its spooled copy. What this
// file adds is the state around that contract: each zone tracks
// whether its storage is currently degraded, /readyz and /statez
// surface it (with an X-Radloc-Storage: degraded header the failure
// detector reads), and a jittered background probe keeps re-testing
// the WAL so the zone exits degraded mode on its own once space frees
// — even when every agent has backed off and no organic write arrives
// to discover the recovery.

// storageState is a zone's storage-health posture: an immutable
// value the event loop swaps in whenever an append outcome changes it,
// so readers (/statez, /readyz, the degraded gauge, the scrubber's
// target list) load it without waiting for the loop.
type storageState struct {
	degraded bool
	since    time.Time // when the current degraded spell began
	lastErr  string
	entered  uint64 // times this zone entered degraded mode
}

// noteAppend observes one journal append outcome — the degraded-mode
// entry and exit edge detector. It runs on the zone's event loop.
func (d *durable) noteAppend(err error) {
	cur := d.storage.Load()
	if err == nil && !cur.degraded {
		return
	}
	next := *cur
	switch {
	case err == nil:
		next.degraded = false
		fmt.Fprintf(d.logw, "radlocd: storage recovered (%s) after %s — ingest writable again\n", d.dir, time.Since(cur.since).Round(time.Millisecond))
	case !cur.degraded:
		next.degraded, next.since, next.lastErr = true, time.Now(), err.Error()
		next.entered++
		fmt.Fprintf(d.logw, "radlocd: storage degraded (%s): %v — ingest read-only (507), probing for recovery\n", d.dir, err)
	default:
		next.lastErr = err.Error()
	}
	d.storage.Store(&next)
}

// storageDegraded reports whether the zone is currently read-only.
func (d *durable) storageDegraded() bool {
	return d.storage.Load().degraded
}

// degradedZones lists the zones currently in degraded read-only mode,
// sorted — the /readyz and /statez surface.
func (zs *zoneSet) degradedZones() []string {
	var out []string
	for _, t := range zs.durableZones() {
		if t.d.storageDegraded() {
			out = append(out, t.z.Name())
		}
	}
	return out
}

// probeStorage re-probes every degraded zone's WAL: one tick of the
// storage probe loop Start runs.
func (zs *zoneSet) probeStorage(ctx context.Context) {
	for _, t := range zs.durableZones() {
		// The probe (tail repair + scratch write + sync) runs on the
		// zone's loop and feeds the same edge detector as appends. A
		// zone that closed meanwhile has nothing left to probe.
		if t.d.storageDegraded() {
			_ = t.z.Do(ctx, func(*fusion.Engine) error {
				t.d.noteAppend(t.d.log.Probe())
				return nil
			})
		}
	}
}
