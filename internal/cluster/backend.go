package cluster

import (
	"errors"
	"fmt"
	"sync"

	"radloc/internal/wal"
)

// ErrPruned is returned by Backend.ReadWAL when the requested offset
// has been pruned from disk — the replica is too far behind to catch
// up from the log and must bootstrap from a state snapshot instead.
// The HTTP boundary maps it to 410 Gone.
var ErrPruned = errors.New("cluster: offset pruned from wal")

// Backend is the per-zone durability surface the cluster layer
// replicates through. internal/node implements it over a zone's WAL
// and checkpoint machinery, running each operation on the zone's
// single-writer event loop; tests implement it in memory.
// Implementations must be safe for concurrent use — the node calls
// them from HTTP handlers and replica goroutines.
type Backend interface {
	// Offset is the zone's WAL head: the offset the next accepted
	// record will get. Everything below it has been applied.
	Offset() uint64
	// ReadWAL copies out the entries of records [from, from+max) in
	// offset order, so the caller streams them without holding the
	// zone. They are contiguous: entry i is the record at from+i, and
	// a gap in the local log ends the read before it (or, at from
	// itself, fails it with ErrPruned). from below the oldest record
	// still on disk fails with ErrPruned; from at or above the head
	// returns nothing.
	ReadWAL(from uint64, max int) ([]wal.Entry, error)
	// SetRetainFloor parks the WAL pruning floor at off: records at or
	// above it survive pruning for a lagging replica's benefit.
	SetRetainFloor(off uint64)
	// ApplyRecords journals and applies replicated entries in order,
	// entry i as the record at first+i, refresh entries included, so
	// the local engine adopts them instead of searching
	// (fusion.Engine.Replay). first must equal the local head — a gap
	// means the stream and local state diverged, which is an error,
	// never a silent skip.
	ApplyRecords(first uint64, entries []wal.Entry) error
	// ExportState serializes the engine state and the WAL offset it
	// covers, for bootstrapping a replica that is beyond log repair.
	// The state is opaque to this package.
	ExportState() (state []byte, applied uint64, err error)
	// Bootstrap replaces local state with a shipped snapshot and
	// aligns the local log to applied, discarding whatever was there.
	Bootstrap(state []byte, applied uint64) error
	// Checkpoint forces a durable checkpoint now — promotion seals the
	// takeover so a crash right after it recovers into the new role's
	// state.
	Checkpoint() error
	// QuarantineDiverged moves every local WAL record at or above
	// floor — plus any checkpoint covering them — into a diverged/
	// directory instead of deleting it, and truncates the local log to
	// floor. It is the repair path for a resurrected primary whose
	// unshipped suffix conflicts with the new primary's history: the
	// data is preserved for operator inspection, never silently
	// dropped. Returns the number of records quarantined.
	QuarantineDiverged(floor uint64) (uint64, error)
}

// BackendResolver finds (creating if needed) the backend for a zone.
// internal/node routes this through the zone manager so replication
// targets lazily instantiate exactly like write targets do.
type BackendResolver func(zone string) (Backend, error)

// EpochStart records the first WAL offset that can hold data written
// under an epoch. The list of starts a node has witnessed is what lets
// a primary compute the divergence floor for a resurrected node stuck
// at an older epoch: everything the old node holds at or above
// min(Start of newer epochs) was never shipped and conflicts with the
// new history.
type EpochStart struct {
	// Epoch is the fencing epoch the start belongs to.
	Epoch uint64 `json:"epoch"`
	// Start is the lowest WAL offset that may carry this epoch's
	// writes. A conservative (lower) value is always safe — it only
	// widens the quarantined suffix.
	Start uint64 `json:"start"`
}

// EpochMeta is everything the epoch store persists for one zone: the
// current fencing epoch plus the known epoch-start history used for
// divergence floors. Every epoch past the first is entered with its
// start, so the history always holds the current epoch's (see Check).
type EpochMeta struct {
	// Epoch is the zone's current fencing epoch.
	Epoch uint64 `json:"epoch"`
	// Starts is the known epoch-start history, ascending by epoch.
	Starts []EpochStart `json:"starts,omitempty"`
}

// ErrNoEpochStart reports epoch metadata whose history lacks the
// current epoch's start: what stores wrote before they kept start
// history, a retired format no longer read. A node cannot compute
// divergence floors without it.
var ErrNoEpochStart = errors.New("cluster: epoch metadata has no start for its current epoch (a retired format without start history)")

// Check reports ErrNoEpochStart for metadata past the first epoch
// whose history lacks the current epoch's start. Zero metadata (no
// store yet) and epoch 1 need none.
func (m EpochMeta) Check() error {
	if m.Epoch > 1 && !hasStart(m.Starts, m.Epoch) {
		return fmt.Errorf("%w: epoch %d", ErrNoEpochStart, m.Epoch)
	}
	return nil
}

// EpochStore persists per-zone epoch metadata across restarts. Epochs
// fence split-brain: a node that crashes and restarts must not forget
// it was demoted, nor the offsets at which newer epochs began.
type EpochStore interface {
	// Load returns the stored metadata for a zone, zero if none.
	Load(zone string) (EpochMeta, error)
	// Save durably records the zone's epoch metadata.
	Save(zone string, meta EpochMeta) error
}

// MemEpochStore is an in-memory EpochStore, the default when
// Options.Epochs is nil; the cluster package's own tests run on it. A
// daemon persists epochs beside each zone's WAL instead, so a restart
// never forgets a demotion.
type MemEpochStore struct {
	mu sync.Mutex
	m  map[string]EpochMeta
}

// Load implements EpochStore.
func (s *MemEpochStore) Load(zone string) (EpochMeta, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[zone], nil
}

// Save implements EpochStore.
func (s *MemEpochStore) Save(zone string, meta EpochMeta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = make(map[string]EpochMeta)
	}
	cp := meta
	cp.Starts = append([]EpochStart(nil), meta.Starts...)
	s.m[zone] = cp
	return nil
}
