// Package zone shards the fusion center into named, independently
// recoverable zones. Each zone owns one fusion.Engine, and a single
// goroutine — the zone's event loop, fed by a bounded mailbox — is
// the only code that touches it: batches and control operations queue
// in the mailbox, and after each one the loop publishes an immutable
// snapshot that readers load without a lock. A sender waits for
// mailbox space; shedding load is the caller's job (the HTTP
// admission queue in the daemon). A Manager keeps the registry of
// live zones: lazy creation from a factory, a hard cap on the live
// count, and idle eviction that checkpoints a zone before releasing
// it, with the eviction-vs-late-measurement race resolved by
// recreation rather than loss.
package zone

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"radloc/internal/fusion"
)

// DefaultZone is the zone legacy single-zone clients land in: the
// unnamed routes (/measurements, /snapshot, ...) and unzoned pipe
// records alias it, so a pre-zone deployment keeps its exact behavior.
const DefaultZone = "default"

// ErrZoneClosed is returned by Submit and Do when the zone's event
// loop has stopped accepting work (eviction or shutdown). The batch
// or operation was NOT run; Manager.Submit retries a batch against a
// recreated zone.
var ErrZoneClosed = errors.New("zone: closed")

// mailboxDepth is each zone's mailbox capacity in operations. A
// sender finding it full waits, bounded by its ctx.
const mailboxDepth = 64

// Resources is everything a factory hands the manager for one zone.
type Resources struct {
	// Engine is the zone's fusion engine. Required. Once the zone is
	// built, its event loop is the engine's only owner.
	Engine *fusion.Engine
	// AfterBatch, when non-nil, runs on the zone's event loop after
	// each submitted batch — the owner's checkpoint-cadence hook. It
	// does not run after Do: a control operation that needs the cadence
	// runs it itself. It may use the engine directly.
	AfterBatch func()
	// Close, when non-nil, runs exactly once on the event loop as the
	// zone shuts down, after the reorder gate's tail has been flushed —
	// the owner's final-checkpoint + release hook. It may use the
	// engine directly.
	Close func() error
	// Aux is an opaque owner handle carried alongside the engine (the
	// daemon keeps its durability state here so /zones/{z}/statez can
	// reach it).
	Aux any
}

// envelope is one mailbox entry: an operation on the zone's engine
// and its reply slot. batch marks a Submit, after which AfterBatch
// runs. The entry with a nil fn is close's stop marker.
type envelope struct {
	fn    func(*fusion.Engine) error
	batch bool
	reply chan error
}

// Zone is one shard: a fusion engine owned by the single goroutine
// that runs mailbox operations on it in arrival order. Submit and Do
// are safe for concurrent use; reads never touch the engine — they
// load the snapshot the loop published after its latest operation.
type Zone struct {
	name string
	res  Resources
	mail chan envelope
	snap atomic.Pointer[fusion.Snapshot]

	// closing refuses new operations once close has begun. One that
	// slips into the mailbox behind the stop marker is never run; its
	// sender learns so from done.
	closing   atomic.Bool
	closeOnce sync.Once
	done      chan struct{} // event loop exited; closeErr is set
	closeErr  error

	lastUsed atomic.Int64 // unix nanos of the newest Submit
}

func newZone(name string, res Resources) *Zone {
	z := &Zone{
		name: name,
		res:  res,
		mail: make(chan envelope, mailboxDepth),
		done: make(chan struct{}),
	}
	z.lastUsed.Store(time.Now().UnixNano())
	z.publish()
	go z.loop()
	return z
}

// Name returns the zone's registry name.
func (z *Zone) Name() string { return z.name }

// Snapshot returns the engine state published after the loop's most
// recent operation. It takes no lock the loop holds, so a read never
// waits behind an apply, a refresh or a checkpoint; and because the
// loop publishes before it replies, a read issued after Submit or Do
// returned reflects that operation. The slices in the result are
// shared with other readers and must not be modified.
func (z *Zone) Snapshot() fusion.Snapshot { return *z.snap.Load() }

// Aux returns the owner handle the factory attached to this zone.
func (z *Zone) Aux() any { return z.res.Aux }

// IdleFor reports how long ago the zone last accepted a batch.
func (z *Zone) IdleFor(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, z.lastUsed.Load()))
}

// publish stores a fresh engine snapshot for readers. Only the loop
// (and newZone, before the loop starts) calls it.
func (z *Zone) publish() {
	s := z.res.Engine.Snapshot()
	z.snap.Store(&s)
}

// loop is the zone's single writer and the engine's only owner: for
// each mailbox operation it runs the operation, publishes the
// resulting snapshot, runs the owner's AfterBatch hook if the
// operation was a batch, and replies.
// At close's stop marker it flushes the reorder gate's tail and runs
// the owner's Close hook.
func (z *Zone) loop() {
	defer close(z.done)
	for env := range z.mail {
		if env.fn == nil {
			break
		}
		err := env.fn(z.res.Engine)
		z.publish()
		if env.batch && z.res.AfterBatch != nil {
			z.res.AfterBatch()
		}
		env.reply <- err
	}
	// Shutdown: no further watermark advance will come, so release
	// every held round before the owner takes its final checkpoint.
	_, _ = z.res.Engine.FlushPending()
	z.publish()
	if z.res.Close != nil {
		z.closeErr = z.res.Close()
	}
}

// Submit offers one batch to the zone's mailbox, waiting for space as
// Do does, and waits for the event loop to apply it, returning the
// per-reading outcome counts. A closed zone fails with ErrZoneClosed
// (eviction race; retry via the manager). A ctx done before admission
// returns ctx.Err() and the batch is never applied; a ctx done after
// admission abandons the wait — the loop still applies the batch.
func (z *Zone) Submit(ctx context.Context, ms []fusion.Meas) (fusion.BatchResult, error) {
	var res fusion.BatchResult
	env := envelope{
		fn: func(e *fusion.Engine) (err error) {
			res, err = e.Submit(ctx, ms)
			return err
		},
		batch: true,
		reply: make(chan error, 1),
	}
	if err := z.send(ctx, env); err != nil {
		return fusion.BatchResult{}, err
	}
	z.lastUsed.Store(time.Now().UnixNano())
	ran, err := z.await(ctx, env.reply)
	if !ran {
		return fusion.BatchResult{}, err
	}
	return res, err
}

// Do runs fn on the zone's event loop with exclusive access to the
// engine and returns its error — the entry for control operations
// (state export and import, checkpoints, replicated records, the
// end-of-stream flush). Like Submit it waits, bounded by ctx, for
// mailbox space. It returns ErrZoneClosed once the zone has closed. A
// ctx cancellation after admission abandons the wait but not the
// operation. Code already running on the loop (AfterBatch, the Close
// hook) must call the engine directly: Do from the loop deadlocks.
func (z *Zone) Do(ctx context.Context, fn func(*fusion.Engine) error) error {
	env := envelope{fn: fn, reply: make(chan error, 1)}
	if err := z.send(ctx, env); err != nil {
		return err
	}
	_, err := z.await(ctx, env.reply)
	return err
}

// send admits env to the mailbox, blocking until there is room, the
// zone has closed, or ctx is done.
func (z *Zone) send(ctx context.Context, env envelope) error {
	if z.closing.Load() {
		return ErrZoneClosed
	}
	select {
	case z.mail <- env:
		return nil
	case <-z.done:
		return ErrZoneClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// await waits for an admitted operation's reply. ran reports whether
// the loop ran the operation; if not, err says why the wait ended: the
// caller gave up (ctx) or the zone closed before reaching it.
func (z *Zone) await(ctx context.Context, reply chan error) (ran bool, err error) {
	select {
	case err := <-reply:
		return true, err
	case <-ctx.Done():
		return false, ctx.Err()
	case <-z.done:
		// The loop replies before it exits, so a reply is either
		// waiting now or never coming.
		select {
		case err := <-reply:
			return true, err
		default:
			return false, ErrZoneClosed
		}
	}
}

// close stops the zone: new Submits and Dos fail with ErrZoneClosed,
// operations admitted before the stop marker drain through the loop,
// the gate's tail is flushed, and the owner's Close hook (final
// checkpoint) runs. It blocks until the loop has exited and returns
// the hook's error. Idempotent.
func (z *Zone) close() error {
	z.closeOnce.Do(func() {
		z.closing.Store(true)
		z.mail <- envelope{} // the loop drains the mailbox, so this finds room
	})
	<-z.done
	return z.closeErr
}
