package core

import (
	"fmt"
	"math"
	"sort"

	"radloc/internal/geometry"
)

// State is a serializable snapshot of a Localizer, sufficient to
// resume filtering with bit-identical behavior: the particle
// population, the RNG position, the iteration counters and the
// sensor-position registry. The configuration is NOT part of the
// state — the importing localizer must be built with the same Config,
// which ImportState cross-checks where it can.
type State struct {
	Iter        int       `json:"iter"`        // completed filter iterations
	Xs          []float64 `json:"xs"`          // particle x coordinates
	Ys          []float64 `json:"ys"`          // particle y coordinates
	Ss          []float64 `json:"ss"`          // particle strengths, µCi
	Ws          []float64 `json:"ws"`          // particle importance weights
	RNG         []byte    `json:"rng"`         // serialized RNG position
	LastSubset  int       `json:"lastSubset"`  // in-range subset size of the last iteration
	SubsetTotal int64     `json:"subsetTotal"` // cumulative in-range subset size across iterations
	EmptyIters  int       `json:"emptyIters"`  // iterations whose fusion-range subset was empty
	// SensorPos lists the sensors heard from, sorted by ID, for the
	// MaxSensorGap observability filter.
	SensorPos []SensorPos `json:"sensorPos,omitempty"`
}

// SensorPos is one heard-from sensor's position.
type SensorPos struct {
	ID int     `json:"id"` // sensor ID
	X  float64 `json:"x"`  // sensor x coordinate
	Y  float64 `json:"y"`  // sensor y coordinate
}

// ExportState captures the localizer's resumable state.
func (l *Localizer) ExportState() (State, error) {
	rngState, err := l.stream.MarshalBinary()
	if err != nil {
		return State{}, fmt.Errorf("core: marshal rng: %w", err)
	}
	ws := make([]float64, len(l.xs))
	for i := range ws {
		ws[i] = l.wts.weight(i)
	}
	st := State{
		Iter:        l.iter,
		Xs:          append([]float64(nil), l.xs...),
		Ys:          append([]float64(nil), l.ys...),
		Ss:          append([]float64(nil), l.ss...),
		Ws:          ws,
		RNG:         rngState,
		LastSubset:  l.lastSubset,
		SubsetTotal: l.subsetTotal,
		EmptyIters:  l.emptyIters,
	}
	for id, pos := range l.sensorPos {
		st.SensorPos = append(st.SensorPos, SensorPos{ID: id, X: pos.X, Y: pos.Y})
	}
	sort.Slice(st.SensorPos, func(a, b int) bool { return st.SensorPos[a].ID < st.SensorPos[b].ID })
	return st, nil
}

// ImportState restores a snapshot captured by ExportState. The
// localizer must have been constructed with the same Config the
// exporter used; a mismatched particle count is rejected.
func (l *Localizer) ImportState(st State) error {
	n := l.cfg.NumParticles
	if len(st.Xs) != n || len(st.Ys) != n || len(st.Ss) != n || len(st.Ws) != n {
		return fmt.Errorf("core: state has %d/%d/%d/%d particles, config wants %d",
			len(st.Xs), len(st.Ys), len(st.Ss), len(st.Ws), n)
	}
	for i := 0; i < n; i++ {
		for _, v := range [4]float64{st.Xs[i], st.Ys[i], st.Ss[i], st.Ws[i]} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: non-finite particle state at index %d", i)
			}
		}
	}
	if err := l.stream.UnmarshalBinary(st.RNG); err != nil {
		return fmt.Errorf("core: restore rng: %w", err)
	}
	copy(l.xs, st.Xs)
	copy(l.ys, st.Ys)
	copy(l.ss, st.Ss)
	l.wts.load(st.Ws)
	l.iter = st.Iter
	l.lastSubset = st.LastSubset
	l.subsetTotal = st.SubsetTotal
	l.emptyIters = st.EmptyIters
	if len(st.SensorPos) > 0 && l.sensorPos == nil {
		l.sensorPos = make(map[int]geometry.Vec, len(st.SensorPos))
	}
	for id := range l.sensorPos {
		delete(l.sensorPos, id)
	}
	for _, sp := range st.SensorPos {
		l.sensorPos[sp.ID] = geometry.V(sp.X, sp.Y)
	}
	l.gridDirty = true
	return nil
}
