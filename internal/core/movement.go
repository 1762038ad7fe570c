package core

import (
	"radloc/internal/geometry"
	"radloc/internal/rng"
)

// MovementModel is the paper's F_movement : A → A prediction hook
// (Section V-B). At each iteration the particles selected by the fusion
// range are passed through the model before weighting, letting the
// filter track non-static sources. A nil model means static sources
// (P” = P', the paper's default).
//
// Implementations receive the localizer's random stream so runs remain
// deterministic for a given seed.
type MovementModel interface {
	// Move predicts one hypothesis' next state.
	Move(pos geometry.Vec, strength float64, stream *rng.Stream) (geometry.Vec, float64)
}

// MovementFunc adapts a function to the MovementModel interface.
type MovementFunc func(pos geometry.Vec, strength float64, stream *rng.Stream) (geometry.Vec, float64)

// Move implements MovementModel.
func (f MovementFunc) Move(pos geometry.Vec, strength float64, stream *rng.Stream) (geometry.Vec, float64) {
	return f(pos, strength, stream)
}

// RandomWalk is the standard diffusion prediction for targets with
// unknown motion: position jitters by a zero-mean Gaussian with the
// given per-iteration standard deviation. Strength is left unchanged
// (radioactive decay is negligible on surveillance time scales).
type RandomWalk struct {
	Sigma float64 // per-iteration position jitter σ; ≤ 0 disables movement
}

var _ MovementModel = RandomWalk{}

// Move implements MovementModel.
func (r RandomWalk) Move(pos geometry.Vec, strength float64, stream *rng.Stream) (geometry.Vec, float64) {
	if r.Sigma <= 0 {
		return pos, strength
	}
	return geometry.V(
		pos.X+stream.Normal(0, r.Sigma),
		pos.Y+stream.Normal(0, r.Sigma),
	), strength
}

// ConstantVelocity predicts a drift of V length units per iteration —
// usable when the transport direction of a source (e.g. a vehicle on a
// known road) is approximately known — plus optional diffusion.
type ConstantVelocity struct {
	V     geometry.Vec // drift per iteration
	Sigma float64      // optional diffusion σ on top of the drift
}

var _ MovementModel = ConstantVelocity{}

// Move implements MovementModel.
func (c ConstantVelocity) Move(pos geometry.Vec, strength float64, stream *rng.Stream) (geometry.Vec, float64) {
	p := pos.Add(c.V)
	if c.Sigma > 0 {
		p = geometry.V(p.X+stream.Normal(0, c.Sigma), p.Y+stream.Normal(0, c.Sigma))
	}
	return p, strength
}

// move runs the movement model on particle id — the prediction step
// producing P” from P', taken one particle at a time inside the
// weighting loop — and, while the spatial index is live, re-files the
// particle under its new position: the index finds a particle's cell
// from the position it is filed at.
func (l *Localizer) move(id int32) {
	from := geometry.V(l.xs[id], l.ys[id])
	pos, s := l.cfg.Movement.Move(from, l.ss[id], l.stream)
	to := geometry.V(l.clampX(pos.X), l.clampY(pos.Y))
	l.xs[id], l.ys[id] = to.X, to.Y
	l.ss[id] = l.clampS(s)
	if l.gridLive() {
		l.grid.Move(int(id), from, to)
	}
}
