package fusion

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"radloc/internal/wal"
)

// Meas is one sequence-stamped measurement as it crosses the ingest
// boundary. Seq is a per-sensor monotone sequence number assigned at
// the source (sensors reporting in rounds share the rhythm: the k-th
// reading of every sensor carries Seq k); 0 means "unsequenced" and
// bypasses the dedup/reorder gate entirely. It is the WAL's record
// type, so a reading is journaled and replayed without conversion.
type Meas = wal.Record

// Journal receives accepted readings before they are applied to the
// filter — the write-ahead hook. Append is called by the engine's one
// owner, so appends are totally ordered exactly as the filter applies
// them; an error vetoes the application. Like the engine, a journal
// has one owner and need not be safe for concurrent use.
type Journal interface {
	// Append durably records one accepted reading before it is applied.
	Append(Meas) error
	// AppendRefresh records the estimates of a refresh the last
	// appended reading made due, right after that reading, so replay
	// can adopt them instead of searching (see Engine.Replay). The
	// estimates are only valid for the call. The engine ignores its
	// error: a lost entry costs replay one search, nothing else.
	AppendRefresh([]wal.Estimate) error
}

// ErrDuplicate is returned for readings whose sequence number has
// already been consumed or is currently held — at-least-once
// redelivery detected and suppressed — and for stale stragglers whose
// slot was given up on.
var ErrDuplicate = errors.New("fusion: duplicate delivery")

// DeliveryStats counts the sequence gate's work. All fields are
// monotone counters except Pending.
type DeliveryStats struct {
	// Duplicates counts redelivered or stale readings dropped by dedup.
	Duplicates uint64 `json:"duplicates"`
	// OutOfOrder counts readings that arrived with a sequence number
	// below the newest already seen — observed transport reordering.
	OutOfOrder uint64 `json:"outOfOrder"`
	// Buffered counts readings that entered the reorder buffer.
	Buffered uint64 `json:"buffered"`
	// Late counts readings applied out of canonical order because they
	// arrived after their round had already been released — reordering
	// beyond the window, admitted rather than dropped.
	Late uint64 `json:"late"`
	// GapSkips counts sequence numbers given up on: readings the
	// transport apparently lost for good.
	GapSkips uint64 `json:"gapSkips"`
	// ForcedFlushes counts buffer overflows that forced releases ahead
	// of the watermark.
	ForcedFlushes uint64 `json:"forcedFlushes"`
	// Unsequenced counts seq-0 readings that bypassed the gate.
	Unsequenced uint64 `json:"unsequenced"`
	// Pending is the number of readings currently held in the reorder
	// buffer (snapshot-time value, not a counter).
	Pending int `json:"pending"`
}

// IngressStats counts the HTTP ingest boundary's admission work —
// the transport-facing face of backpressure, served on /statez so an
// operator can see load being shed before it shows up as loss. All
// fields are monotone counters. The counters reconcile with a
// well-behaved agent's delivery stats: every reading the agent counts
// delivered is Accepted, Duplicates (redelivery suppressed) or
// Rejected here, and every agent retry prompted by the server shows
// up as Shed429 or RateLimited.
type IngressStats struct {
	// Requests counts POST /measurements requests that passed the
	// method and Content-Type checks.
	Requests uint64 `json:"requests"`
	// Accepted counts readings the engine took (applied or buffered in
	// the reorder gate).
	Accepted uint64 `json:"accepted"`
	// Duplicates counts readings the sequence gate suppressed as
	// redelivery — the at-least-once transport doing its job.
	Duplicates uint64 `json:"duplicates"`
	// Rejected counts readings refused for cause (unknown sensor,
	// impossible CPM, quarantine).
	Rejected uint64 `json:"rejected"`
	// Shed429 counts requests refused at the door because the
	// admission queue was full (HTTP 429 + Retry-After).
	Shed429 uint64 `json:"shed429"`
	// Shed507 counts requests refused because the zone's journal could
	// not be written — storage degraded (HTTP 507 + Retry-After). The
	// agent keeps its spooled copy and retries.
	Shed507 uint64 `json:"shed507"`
	// RateLimited counts readings refused by a per-sensor token bucket
	// (the request is answered 429 + Retry-After at the first refusal).
	RateLimited uint64 `json:"rateLimited"`
	// Oversized counts request bodies over the byte bound (HTTP 413).
	Oversized uint64 `json:"oversized"`
	// BadContentType counts requests with a non-JSON Content-Type
	// (HTTP 415).
	BadContentType uint64 `json:"badContentType"`
	// Malformed counts request bodies that did not parse (HTTP 400).
	Malformed uint64 `json:"malformed"`
}

// gate is the dedup/reorder front of the engine.
//
// Readings are staged per round (their Seq) and a round is released —
// journaled and applied in ascending sensor-ID order — once the
// watermark (newest Seq seen minus the window) passes it. Because the
// release order is a pure function of the readings' own stamps, any
// arrival order whose displacement stays within the window reduces to
// the identical application sequence, which is what makes "duplicate
// and shuffled redelivery ≡ exactly-once in-order" an exact statement
// rather than a statistical one.
type gate struct {
	cursor   map[int]uint64          // per-sensor highest applied seq (dedup)
	held     map[uint64]map[int]Meas // round → sensorID → reading
	heldN    int
	maxSeq   uint64 // newest sequence number seen
	released uint64 // rounds ≤ released have been released
}

func newGate() *gate {
	return &gate{
		cursor: make(map[int]uint64),
		held:   make(map[uint64]map[int]Meas),
	}
}

// IngestSeq feeds one sequence-stamped measurement through the
// dedup/reorder gate and applies whatever the gate releases. It
// returns the number of readings applied to the engine by this call
// (0 if the reading was deduplicated or buffered; possibly many when
// it advanced the watermark). The error reflects the offered
// reading's own outcome: ErrDuplicate for redelivery, nil otherwise
// (including "buffered, pending the watermark"); rejections of
// individual released readings are visible in the engine's counters,
// as on the unsequenced path.
func (e *Engine) IngestSeq(m Meas) (int, error) {
	if m.Seq == 0 {
		e.met.unsequenced.Inc()
		if err := e.journalAppend(m); err != nil {
			return 0, err
		}
		return 1, e.apply(m)
	}
	// Unknown sensors are refused before any gate state is touched: a
	// spoofed sensor ID must not grow the dedup cursor map or park
	// readings in the reorder buffer — that is the one per-sensor
	// surface an attacker controls, and it stays bounded by the
	// registry (see Config.MaxSensors).
	if _, ok := e.sensors[m.SensorID]; !ok {
		e.met.rejected.Inc()
		return 0, fmt.Errorf("%w: id %d", ErrUnknownSensor, m.SensorID)
	}
	g := e.gate
	if m.Seq < g.maxSeq {
		e.met.outOfOrder.Inc()
	}
	if m.Seq <= g.cursor[m.SensorID] {
		e.met.duplicates.Inc()
		return 0, ErrDuplicate
	}
	if _, dup := g.held[m.Seq][m.SensorID]; dup {
		e.met.duplicates.Inc()
		return 0, ErrDuplicate
	}
	if m.Seq <= g.released {
		// The round has sailed: apply immediately, out of canonical
		// order but admitted — shedding data over a bounded-window
		// violation would be worse.
		e.met.late.Inc()
		if err := e.journalAppend(m); err != nil {
			return 0, err
		}
		return 1, e.applyReleased(m)
	}
	round := g.held[m.Seq]
	if round == nil {
		round = make(map[int]Meas)
		g.held[m.Seq] = round
	}
	round[m.SensorID] = m
	g.heldN++
	e.met.buffered.Inc()
	e.met.pending.Set(float64(g.heldN))
	if m.Seq > g.maxSeq {
		g.maxSeq = m.Seq
	}
	applied, err := e.drain(false)
	if err != nil {
		return applied, err
	}
	// Overflow backstop: the organic bound is (window+1) rounds ×
	// sensor count, but nothing forces well-formed stamps, so cap the
	// buffer and release ahead of the watermark when it bursts.
	if g.heldN > e.maxHeld() {
		e.met.forcedFlushes.Inc()
		n, err := e.flushRounds(g.maxSeq)
		applied += n
		if err != nil {
			return applied, err
		}
	}
	return applied, nil
}

func (e *Engine) maxHeld() int {
	return (e.window + 1) * (len(e.sensors) + 1)
}

// drain releases every round the watermark has passed — or, for
// final=true, every held round.
func (e *Engine) drain(final bool) (int, error) {
	g := e.gate
	target := g.maxSeq
	if !final {
		if g.maxSeq <= uint64(e.window) {
			return 0, nil
		}
		target = g.maxSeq - uint64(e.window)
	}
	if target <= g.released {
		return 0, nil
	}
	return e.flushRounds(target)
}

// flushRounds releases all held rounds ≤ target in (round,
// sensor-ID) order and advances the release watermark to target.
func (e *Engine) flushRounds(target uint64) (int, error) {
	g := e.gate
	rounds := make([]uint64, 0, len(g.held))
	for s := range g.held {
		if s <= target {
			rounds = append(rounds, s)
		}
	}
	sort.Slice(rounds, func(a, b int) bool { return rounds[a] < rounds[b] })
	applied := 0
	defer func() {
		e.met.pending.Set(float64(g.heldN))
		if applied > 0 {
			e.met.releaseBatch.Observe(float64(applied))
		}
	}()
	for _, s := range rounds {
		round := g.held[s]
		ids := make([]int, 0, len(round))
		for id := range round {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			m := round[id]
			if err := e.journalAppend(m); err != nil {
				// Leave the unjournaled remainder held; released stays
				// behind so nothing is lost.
				return applied, err
			}
			delete(round, id)
			g.heldN--
			_ = e.applyReleased(m)
			applied++
		}
		delete(g.held, s)
		g.released = s
	}
	if target > g.released {
		g.released = target
	}
	return applied, nil
}

// applyReleased applies one gate-released (already journaled)
// reading: advances the sensor's dedup cursor, accounts for skipped
// sequence numbers, and folds the reading in.
func (e *Engine) applyReleased(m Meas) error {
	e.advanceCursor(m)
	return e.apply(m)
}

// advanceCursor moves the sensor's dedup cursor to a released
// reading, accounting for skipped sequence numbers.
func (e *Engine) advanceCursor(m Meas) {
	cur := e.gate.cursor[m.SensorID]
	if m.Seq > cur {
		if cur > 0 && m.Seq > cur+1 {
			e.met.gapSkips.Add(m.Seq - cur - 1)
		}
		e.gate.cursor[m.SensorID] = m.Seq
	}
}

// BatchResult classifies the readings of one submitted batch by
// outcome. It is the unit of acknowledgement shared by the HTTP ingest
// boundary, the zone mailbox and the engine itself, so every layer
// reports delivery identically.
type BatchResult struct {
	// Accepted counts readings the engine took: applied to the filter
	// or buffered in the reorder gate pending their round's release.
	Accepted int `json:"accepted"`
	// Duplicate counts readings the sequence gate suppressed as
	// at-least-once redelivery.
	Duplicate int `json:"duplicate"`
	// Rejected counts readings refused for cause (unknown sensor,
	// impossible CPM, quarantine).
	Rejected int `json:"rejected"`
}

// Add accumulates another batch's outcome counts into r.
func (r *BatchResult) Add(o BatchResult) {
	r.Accepted += o.Accepted
	r.Duplicate += o.Duplicate
	r.Rejected += o.Rejected
}

// Submit feeds a batch of measurements through the sequenced ingest
// path, classifying each reading's outcome. It is the synchronous
// batch face of IngestSeq — the zone event loop applies every client
// batch through it, so a zone's single-writer application order is
// exactly the batch order. ctx is
// checked between readings; a cancellation returns the partial result.
func (e *Engine) Submit(ctx context.Context, ms []Meas) (BatchResult, error) {
	var res BatchResult
	for _, m := range ms {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		switch _, err := e.IngestSeq(m); {
		case err == nil:
			res.Accepted++
		case errors.Is(err, ErrDuplicate):
			res.Duplicate++
		default:
			var je *JournalError
			if errors.As(err, &je) {
				// Storage refused the append: nothing about the reading
				// is wrong, so don't count it rejected — abort the batch
				// and surface the fault so the transport keeps its copy.
				return res, err
			}
			res.Rejected++
		}
	}
	return res, nil
}

// FlushPending releases every held round in canonical order — for
// end-of-stream or shutdown, when no further watermark advance will
// come. Returns the number of readings applied.
func (e *Engine) FlushPending() (int, error) {
	return e.drain(true)
}

// Settle is the end-of-stream step before the final source picture is
// read: FlushPending, then Refresh. A failed flush returns its error
// without refreshing: the unjournaled rounds stay held, and a retried
// Settle refreshes once, after the flush that succeeds, so the final
// state does not depend on how many attempts failed.
func (e *Engine) Settle() error {
	if _, err := e.FlushPending(); err != nil {
		return err
	}
	e.Refresh()
	return nil
}

// Replay re-applies one journaled reading during recovery: it bypasses
// both journal and gate (the record was journaled in application
// order, post-gate) but advances the gate's cursors and watermark so
// redelivery of already-recovered readings deduplicates, and advances
// the journal offset accounting — replayed records are already
// durable. Delivery counters advance exactly as the live path's did
// for the same record, so a replica (or a recovered node) reports the
// same delivery picture as the node that journaled it. When the
// reading makes a refresh due, the refresh adopts ent.Refresh, the
// estimates journaled after it, and searches only when there are none.
func (e *Engine) Replay(ent wal.Entry) {
	m := ent.Rec
	e.journaled++
	e.met.journaled.Set(float64(e.journaled))
	if m.Seq > 0 {
		g := e.gate
		if m.Seq > g.released {
			g.released = m.Seq
		}
		if m.Seq > g.maxSeq {
			g.maxSeq = m.Seq
		}
		e.advanceCursor(m)
	} else {
		e.met.unsequenced.Inc()
	}
	if due, _ := e.fold(m); due {
		e.replayRefresh(ent.Refresh)
	}
}
