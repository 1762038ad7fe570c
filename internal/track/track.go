// Package track maintains persistent source tracks over the
// localizer's per-step estimate sets. Raw mean-shift modes flicker —
// spurious modes appear for a step or two and real sources occasionally
// drop out — so an operator consumes *tracks*: estimates associated
// across time, confirmed after repeated hits, and retired after
// repeated misses. This is the standard M-of-N track management layer
// on top of the paper's estimator.
package track

import (
	"fmt"
	"sort"

	"radloc/internal/core"
	"radloc/internal/geometry"
)

// Config tunes track management; zero values take the documented
// defaults.
type Config struct {
	// GateRadius is the maximum distance between a track and an
	// estimate for association (default 15 length units).
	GateRadius float64
	// Alpha is the exponential smoothing factor applied to position and
	// strength on update; 1 means "use the newest estimate verbatim"
	// (default 0.5).
	Alpha float64
	// ConfirmHits is the number of associations before a track is
	// reported (default 3).
	ConfirmHits int
	// DropMisses is the number of consecutive unmatched steps after
	// which a track is retired (default 4).
	DropMisses int
}

func (c Config) withDefaults() Config {
	if c.GateRadius <= 0 {
		c.GateRadius = 15
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.5
	}
	if c.ConfirmHits <= 0 {
		c.ConfirmHits = 3
	}
	if c.DropMisses <= 0 {
		c.DropMisses = 4
	}
	return c
}

// Track is one hypothesized persistent source.
type Track struct {
	ID        int
	Pos       geometry.Vec // smoothed position
	Strength  float64      // smoothed strength (µCi)
	FirstStep int
	LastSeen  int
	Hits      int
	Misses    int // consecutive missed steps
	Confirmed bool
}

// String implements fmt.Stringer.
func (t Track) String() string {
	state := "tentative"
	if t.Confirmed {
		state = "confirmed"
	}
	return fmt.Sprintf("track %d (%s): %.4g µCi at %v, hits %d", t.ID, state, t.Strength, t.Pos, t.Hits)
}

// Manager associates estimate sets to tracks step by step. The zero
// value is not usable; construct with NewManager.
type Manager struct {
	cfg    Config
	tracks []Track
	nextID int
}

// NewManager creates a track manager.
func NewManager(cfg Config) *Manager {
	return &Manager{cfg: cfg.withDefaults(), nextID: 1}
}

// Update folds one step's estimates into the track set: estimates are
// greedily matched to the nearest track within the gate; matched tracks
// are smoothed toward the estimate; unmatched estimates open tentative
// tracks; unmatched tracks accumulate misses and are retired at
// DropMisses.
func (m *Manager) Update(step int, ests []core.Estimate) {
	type pair struct {
		d     float64
		track int
		est   int
	}
	var pairs []pair
	for ti := range m.tracks {
		for ei := range ests {
			if d := m.tracks[ti].Pos.Dist(ests[ei].Pos); d <= m.cfg.GateRadius {
				pairs = append(pairs, pair{d: d, track: ti, est: ei})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].d < pairs[b].d })

	trackUsed := make([]bool, len(m.tracks))
	estUsed := make([]bool, len(ests))
	for _, p := range pairs {
		if trackUsed[p.track] || estUsed[p.est] {
			continue
		}
		trackUsed[p.track] = true
		estUsed[p.est] = true
		m.hit(&m.tracks[p.track], step, ests[p.est])
	}
	for ti := range m.tracks {
		if !trackUsed[ti] {
			m.tracks[ti].Misses++
		}
	}
	for ei := range ests {
		if !estUsed[ei] {
			m.tracks = append(m.tracks, Track{
				ID:        m.nextID,
				Pos:       ests[ei].Pos,
				Strength:  ests[ei].Strength,
				FirstStep: step,
				LastSeen:  step,
				Hits:      1,
			})
			m.nextID++
		}
	}

	// Retire tracks that have missed too long.
	kept := m.tracks[:0]
	for _, t := range m.tracks {
		if t.Misses < m.cfg.DropMisses {
			kept = append(kept, t)
		}
	}
	m.tracks = kept
}

func (m *Manager) hit(t *Track, step int, e core.Estimate) {
	a := m.cfg.Alpha
	t.Pos = geometry.V(t.Pos.X+(e.Pos.X-t.Pos.X)*a, t.Pos.Y+(e.Pos.Y-t.Pos.Y)*a)
	t.Strength += (e.Strength - t.Strength) * a
	t.LastSeen = step
	t.Hits++
	t.Misses = 0
	if t.Hits >= m.cfg.ConfirmHits {
		t.Confirmed = true
	}
}

// State is a serializable snapshot of a Manager, for checkpointed
// crash recovery. Track fields are all exported, so the track set
// round-trips through JSON unchanged.
type State struct {
	NextID int     `json:"nextId"`
	Tracks []Track `json:"tracks,omitempty"`
}

// ExportState captures the manager's resumable state.
func (m *Manager) ExportState() State {
	return State{
		NextID: m.nextID,
		Tracks: append([]Track(nil), m.tracks...),
	}
}

// ImportState restores a snapshot captured by ExportState.
func (m *Manager) ImportState(st State) {
	m.nextID = st.NextID
	if m.nextID < 1 {
		m.nextID = 1
	}
	m.tracks = append(m.tracks[:0], st.Tracks...)
}

// Confirmed returns the confirmed tracks, most-hit first.
func (m *Manager) Confirmed() []Track {
	var out []Track
	for _, t := range m.tracks {
		if t.Confirmed {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Hits != out[b].Hits {
			return out[a].Hits > out[b].Hits
		}
		return out[a].ID < out[b].ID
	})
	return out
}
