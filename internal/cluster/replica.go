package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// applyChunk is how many decoded records are buffered before they are
// handed to the backend — bounds memory while keeping the stream's
// prefix-safety: records applied in earlier chunks survive a torn
// frame later in the same response.
const applyChunk = 512

// startReplicaLocked spawns the zone's pull loop. Caller holds n.mu.
func (n *Node) startReplicaLocked(zs *zoneState) {
	if zs.cancel != nil || n.closed {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	zs.cancel = cancel
	n.wg.Add(1)
	go n.replicaLoop(ctx, zs.name)
	n.logf("cluster: replicating zone %q from %q", zs.name, zs.primaryURL)
}

// Replicate makes this node a standby for the zone, pulling from the
// given primary URL. Unlike Demote it leaves the epoch alone — it is
// the first step of a migration, where the target warms up against
// the still-live owner.
func (n *Node) Replicate(zone, from string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	zs, err := n.zoneFor(zone)
	if err != nil {
		return err
	}
	zs.role = RoleStandby
	zs.draining = false
	zs.primaryURL = from
	zs.caughtUp = false
	zs.lastCaughtUp = time.Now()
	n.met.roleChanged(zone, false, zs.epoch)
	n.startReplicaLocked(zs)
	return nil
}

// replicaLoop pulls WAL for one standby zone until cancelled. A pull
// that learns it is still behind loops again immediately; a caught-up
// or failed pull waits PullInterval first. The wait is context-aware —
// Close must not block behind a long pull interval.
func (n *Node) replicaLoop(ctx context.Context, zone string) {
	defer n.wg.Done()
	for {
		if ctx.Err() != nil {
			return
		}
		behind := n.pullOnce(ctx, zone)
		if ctx.Err() != nil {
			return
		}
		if !behind {
			wait, cancel := context.WithTimeout(ctx, n.opts.PullInterval)
			<-wait.Done()
			cancel()
		}
	}
}

// pullOnce performs one replication pull for the zone and reports
// whether the standby is still behind (caller should loop without
// sleeping). All lag bookkeeping — success or failure — happens here.
func (n *Node) pullOnce(ctx context.Context, zone string) bool {
	n.mu.Lock()
	zs, ok := n.zones[zone]
	if !ok || zs.role != RoleStandby || zs.primaryURL == "" {
		n.mu.Unlock()
		return false
	}
	primary := zs.primaryURL
	epoch := zs.epoch
	n.mu.Unlock()

	b, err := n.opts.Resolver(zone)
	if err != nil {
		n.finishPull(zone, 0, 0, 0, err)
		return false
	}
	from := b.Offset()

	u := fmt.Sprintf("%s/cluster/wal/%s?from=%d&epoch=%d&max=%d",
		primary, url.PathEscape(zone), from, epoch, n.opts.PullBatch)
	resp, err := n.get(ctx, u)
	if err != nil {
		n.finishPull(zone, 0, from, 0, err)
		return false
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		// The suffix we need was pruned: bootstrap from a snapshot,
		// then report behind so the next pull resumes from the new
		// offset immediately.
		io.Copy(io.Discard, resp.Body)
		if err := n.bootstrap(ctx, zone, b, primary); err != nil {
			n.finishPull(zone, 0, from, 0, err)
			return false
		}
		n.finishPull(zone, 0, b.Offset(), b.Offset(), nil)
		return true
	case http.StatusConflict:
		io.Copy(io.Discard, resp.Body)
		n.met.fenced()
		n.finishPull(zone, 0, from, 0, fmt.Errorf("%w: primary refused pull at epoch %d", ErrStaleEpoch, epoch))
		return false
	default:
		io.Copy(io.Discard, resp.Body)
		n.finishPull(zone, 0, from, 0, fmt.Errorf("cluster: pull %s: status %d", zone, resp.StatusCode))
		return false
	}

	applied, head, err := n.applyStream(zone, b, epoch, resp.Body)
	var div *divergedError
	if errors.As(err, &div) {
		if rerr := n.repairDivergence(ctx, zone, b, primary, div); rerr != nil {
			n.finishPull(zone, applied, b.Offset(), head, rerr)
			return false
		}
		n.finishPull(zone, applied, b.Offset(), b.Offset(), nil)
		return true
	}
	n.finishPull(zone, applied, b.Offset(), head, err)
	return err == nil && b.Offset() < head
}

// repairDivergence handles a resurrected node whose local WAL suffix
// was never shipped before a newer epoch took over: the suffix (and
// any checkpoint covering it) is quarantined to the backend's
// diverged/ directory — preserved for inspection, never dropped —
// then the node re-seeds from the current primary's snapshot and
// rejoins as a clean standby.
func (n *Node) repairDivergence(ctx context.Context, zone string, b Backend, primary string, div *divergedError) error {
	n.logf("cluster: zone %q diverged: local head %d above floor %d of epoch %d; quarantining suffix",
		zone, div.Local, div.Floor, div.Epoch)
	moved, err := b.QuarantineDiverged(div.Floor)
	if err != nil {
		return fmt.Errorf("cluster: quarantine diverged suffix of %q: %w", zone, err)
	}
	n.met.divergenceRepairs.Inc()
	n.met.divergedRecords.Add(moved)
	n.logf("cluster: zone %q: quarantined %d diverged records", zone, moved)
	if err := n.bootstrap(ctx, zone, b, primary); err != nil {
		return err
	}
	return nil
}

// divergedError reports that the local WAL holds records above the
// divergence floor of a newer epoch — an unshipped suffix that
// conflicts with the cluster's current history.
type divergedError struct {
	// Zone is the diverged zone.
	Zone string
	// Floor is the lowest offset the newer history may occupy.
	Floor uint64
	// Local is this node's WAL head.
	Local uint64
	// Epoch is the newer epoch observed from the primary.
	Epoch uint64
}

// Error implements error.
func (e *divergedError) Error() string {
	return fmt.Sprintf("cluster: zone %q diverged: local head %d above epoch-%d floor %d",
		e.Zone, e.Local, e.Epoch, e.Floor)
}

// get issues one authenticated GET through the node's transport.
func (n *Node) get(ctx context.Context, u string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if n.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+n.opts.Token)
	}
	return n.opts.HTTP.RoundTrip(req)
}

// applyStream decodes one pull response and applies its records in
// offset order. It is prefix-safe: a torn or corrupt frame stops the
// stream with an error, but every chunk applied before it is kept —
// exactly the discipline WAL-tail recovery uses. Returns the number
// of records applied and the primary's head.
func (n *Node) applyStream(zone string, b Backend, epoch uint64, body io.Reader) (applied uint64, head uint64, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	if !sc.Scan() {
		return 0, 0, fmt.Errorf("%w: stream ended before hello", ErrBadFrame)
	}
	hello, err := DecodeFrame(sc.Bytes())
	if err != nil {
		return 0, 0, err
	}
	if hello.Type != FrameHello {
		return 0, 0, fmt.Errorf("%w: first frame is %q, want hello", ErrBadFrame, hello.Type)
	}
	if hello.Epoch < epoch {
		n.met.fenced()
		return 0, 0, fmt.Errorf("%w: hello at epoch %d, zone at %d", ErrStaleEpoch, hello.Epoch, epoch)
	}
	if hello.Epoch > epoch {
		// The primary is ahead of us by at least one promotion. Before
		// adopting its epoch, check the divergence floor it sent: any
		// local records at or above it were written under our old
		// epoch but never shipped — replaying the new history over
		// them would silently fork state. Refuse the stream and let
		// the pull loop quarantine + re-seed.
		if local := b.Offset(); local > hello.Start {
			return 0, 0, &divergedError{Zone: zone, Floor: hello.Start, Local: local, Epoch: hello.Epoch}
		}
		n.adoptEpoch(zone, hello.Epoch, hello.Start)
	}
	head = hello.Head

	var chunk []RecordAt
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		if err := b.ApplyRecords(chunk); err != nil {
			return err
		}
		applied += uint64(len(chunk))
		chunk = chunk[:0]
		return nil
	}
	want := b.Offset()
	for sc.Scan() {
		f, err := DecodeFrame(sc.Bytes())
		if err != nil {
			ferr := flush()
			if ferr != nil {
				return applied, head, ferr
			}
			return applied, head, err
		}
		switch f.Type {
		case FrameRecord:
			if f.Off != want {
				ferr := flush()
				if ferr != nil {
					return applied, head, ferr
				}
				return applied, head, fmt.Errorf("%w: offset gap: got %d, want %d", ErrBadFrame, f.Off, want)
			}
			want++
			chunk = append(chunk, RecordAt{Off: f.Off, Rec: f.Rec})
			if len(chunk) >= applyChunk {
				if err := flush(); err != nil {
					return applied, head, err
				}
			}
		case FrameEnd:
			if err := flush(); err != nil {
				return applied, head, err
			}
			if f.Head > head {
				head = f.Head
			}
			return applied, head, nil
		default:
			ferr := flush()
			if ferr != nil {
				return applied, head, ferr
			}
			return applied, head, fmt.Errorf("%w: unexpected %q frame mid-stream", ErrBadFrame, f.Type)
		}
	}
	if err := flush(); err != nil {
		return applied, head, err
	}
	if scerr := sc.Err(); scerr != nil {
		return applied, head, scerr
	}
	return applied, head, fmt.Errorf("%w: stream ended without end frame", ErrBadFrame)
}

// bootstrap replaces the zone's local state with a snapshot fetched
// from the primary — the catch-up path when the needed WAL suffix has
// been pruned.
func (n *Node) bootstrap(ctx context.Context, zone string, b Backend, primary string) error {
	applied, snapEpoch, state, err := n.FetchState(ctx, primary, zone)
	if err != nil {
		return err
	}
	n.mu.Lock()
	epoch := uint64(0)
	if zs, ok := n.zones[zone]; ok {
		epoch = zs.epoch
	}
	n.mu.Unlock()
	if snapEpoch < epoch {
		n.met.fenced()
		return fmt.Errorf("%w: snapshot at epoch %d, zone at %d", ErrStaleEpoch, snapEpoch, epoch)
	}
	if snapEpoch > epoch {
		// Start 0 is conservative: the snapshot does not say where the
		// new epoch's history began, only that it covers applied.
		n.adoptEpoch(zone, snapEpoch, 0)
	}
	if err := b.Bootstrap(state, applied); err != nil {
		return err
	}
	n.met.bootstraps.Inc()
	n.logf("cluster: bootstrapped zone %q from %q at offset %d", zone, primary, applied)
	return nil
}

// adoptEpoch raises the zone's epoch to a higher one observed from
// its primary — after the divergence check has cleared the local
// prefix — and persists it. start is the lowest offset the new
// history may occupy as reported by the primary; it seeds this node's
// own floor computations should it be promoted later.
func (n *Node) adoptEpoch(zone string, epoch, start uint64) {
	n.mu.Lock()
	zs, ok := n.zones[zone]
	var meta EpochMeta
	if ok && epoch > zs.epoch {
		zs.starts = recordStart(zs.starts, EpochStart{Epoch: epoch, Start: start})
		zs.epoch = epoch
		n.met.roleChanged(zone, zs.role == RolePrimary, epoch)
	}
	if ok {
		meta = epochMetaLocked(zs)
	} else {
		meta = EpochMeta{Epoch: epoch}
	}
	n.mu.Unlock()
	if err := n.opts.Epochs.Save(zone, meta); err != nil {
		n.logf("cluster: persist adopted epoch for %q: %v", zone, err)
	}
}

// finishPull folds one pull's outcome into the zone's lag state and
// gauges. applied counts records journaled this pull; local is the
// local head afterwards; head is the primary's head (0 when unknown).
func (n *Node) finishPull(zone string, applied, local, head uint64, err error) {
	now := time.Now()
	n.mu.Lock()
	zs, ok := n.zones[zone]
	if !ok {
		n.mu.Unlock()
		return
	}
	zs.applied = local
	if head > 0 || err == nil {
		zs.head = head
	}
	if err != nil {
		zs.lastErr = err.Error()
		zs.caughtUp = false
	} else {
		zs.lastErr = ""
		if local >= zs.head {
			zs.caughtUp = true
			zs.lastCaughtUp = now
		} else {
			zs.caughtUp = false
		}
	}
	var lagSec float64
	if !zs.caughtUp {
		lagSec = now.Sub(zs.lastCaughtUp).Seconds()
	}
	var lagRec uint64
	if zs.head > local {
		lagRec = zs.head - local
	}
	n.mu.Unlock()
	n.met.lagSeconds.With(zone).Set(lagSec)
	n.met.lagRecords.With(zone).Set(float64(lagRec))
	n.met.pulls.Inc()
	if err != nil {
		n.met.pullErrors.Inc()
	}
	n.met.applied.Add(applied)
	if err != nil && !errors.Is(err, context.Canceled) {
		n.logf("cluster: pull %q: %v", zone, err)
	}
}

// stateSnapshot is the /cluster/state/{zone} payload: a serialized
// engine state, the WAL offset it covers, and the owner's epoch.
type stateSnapshot struct {
	// Applied is the WAL offset the state covers.
	Applied uint64 `json:"applied"`
	// Epoch is the exporting node's zone epoch.
	Epoch uint64 `json:"epoch"`
	// State is the fusion engine's serialized state, base64 in the
	// JSON payload. Both nodes of a zone run the same release, so the
	// encoding needs no negotiation: a peer of another release fails
	// to decode it and the bootstrap fails loudly.
	State []byte `json:"state"`
}
