package node

import (
	"context"
	"fmt"

	"radloc/internal/fusion"
	"radloc/internal/httpingest"
	"radloc/internal/wal"
	"radloc/internal/zone"
)

// WritePipeline is the node's single write path. Every mutation of a
// zone's engine — a pipe-mode stdin record, an HTTP measurement batch,
// a replicated WAL record — flows through it, so the invariants fixed
// here hold on every entry point by construction:
//
//	admission → sequencing/dedup → WAL journal → engine apply → ack
//
// Stage order for client writes (Submit): the cluster fence first (a
// standby or draining zone refuses before touching the data), then
// zone admission (zone limit, a wait for mailbox space), then — on the
// zone's single-writer event loop — the sequence gate's dedup/reorder,
// the journal-before-apply WAL append (a degraded disk vetoes the
// apply with fusion.JournalError), the engine apply, and finally the
// ack carried back on the envelope's reply channel.
//
// Replicated records (Apply) enter below the fence and the gate: they
// were fenced by the cluster layer's epoch check and sequenced by the
// primary, so the pipeline enforces offset continuity, journals, and
// applies through the engine's replay entry — the same code path boot
// recovery uses, which is what keeps a caught-up standby bit-identical
// to its primary. A record's refresh entry travels with it, so the
// standby adopts the primary's estimates instead of searching.
type WritePipeline struct {
	zs *zoneSet
}

// Fence is the pipeline's admission gate against the cluster's write
// routing: nil when this node is the zone's live primary (or there is
// no cluster), cluster.NotPrimaryError for a standby (with the
// redirect target when known), cluster.ErrDraining mid-cutover. The
// HTTP boundary renders these as 307/503 before reading the body; the
// pipe boundary counts them as refused readings.
func (p *WritePipeline) Fence(zoneName string) error {
	if n := p.zs.clusterNode; n != nil {
		return n.AdmitWrite(zoneName)
	}
	return nil
}

// Submit pushes one client-origin batch through the full pipeline:
// fence, zone admission, and — on the zone's event loop — dedup,
// journal-before-apply and ack. A fence refusal is wrapped in
// httpingest.ErrNotWritable so the HTTP boundary's status mapping
// (503 + Retry-After: hold the batch, retry elsewhere) applies even
// when ownership moved between the mux-level fence and the apply.
func (p *WritePipeline) Submit(ctx context.Context, zoneName string, ms []fusion.Meas) (fusion.BatchResult, error) {
	if err := p.Fence(zoneName); err != nil {
		return fusion.BatchResult{}, fmt.Errorf("%w: %v", httpingest.ErrNotWritable, err)
	}
	return p.zs.manager.Submit(ctx, zoneName, ms)
}

// Apply pushes replicated entries, the first at offset first, through
// the pipeline's lower half on the zone's event loop: one continuity
// check against the WAL head for the batch, WAL journal through the
// zone's fusion.Journal (so the degraded-mode detector sees every
// append), engine apply via the replay entry, then the zone's
// checkpoint cadence. WAL order stays application order, exactly as on
// the live write path. The replication stream is the WAL, so a zone
// without one is refused.
func (p *WritePipeline) Apply(z *zone.Zone, first uint64, entries []wal.Entry) error {
	d := zoneDurable(z)
	if d == nil {
		return fmt.Errorf("replication into zone %q needs a WAL (durability is off)", z.Name())
	}
	return z.Do(context.TODO(), func(eng *fusion.Engine) error {
		if cur := d.log.Offset(); first != cur {
			return fmt.Errorf("replication offset gap: got %d, local head %d", first, cur)
		}
		for _, e := range entries {
			// The zone's journal, not the raw log: a failed append puts
			// a standby into degraded mode exactly as it does a primary.
			if err := d.Append(e.Rec); err != nil {
				return err
			}
			// The refresh entry is journaled as the primary journaled
			// it, so this log boots without searching too; like the
			// primary's, a failed one costs only a search.
			if e.Refresh != nil {
				_ = d.AppendRefresh(e.Refresh)
			}
			eng.Replay(e)
		}
		d.maybeCheckpoint()
		return nil
	})
}
