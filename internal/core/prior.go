package core

import (
	"radloc/internal/geometry"
	"radloc/internal/rng"
)

// InitSampler draws one initial particle hypothesis. Section V-A: the
// uniform initialization is used "because we do not assume any a priori
// knowledge about the location or strength of the source. If prior
// knowledge is available, the particles can be initialized according to
// the pre-existing distribution. Doing so will reduce the number of
// iterations required to obtain accurate estimates."
type InitSampler func(stream *rng.Stream) (pos geometry.Vec, strength float64)

// SeededPrior builds an InitSampler that concentrates a fraction of the
// initial particles around the given centers (e.g. suspected source
// locations known in advance) with Gaussian spread sigma, and
// spreads the remainder uniformly so undiscovered sources are still
// reachable. Strengths stay uniform over the prior range in both
// components. Out-of-bounds draws are clamped by the localizer.
//
// An empty center list yields the uniform prior.
func SeededPrior(centers []geometry.Vec, sigma, seededFrac float64, bounds geometry.Rect, strengthMin, strengthMax float64) InitSampler {
	if seededFrac < 0 {
		seededFrac = 0
	}
	if seededFrac > 1 {
		seededFrac = 1
	}
	if sigma <= 0 {
		sigma = 10
	}
	return func(stream *rng.Stream) (geometry.Vec, float64) {
		s := stream.Uniform(strengthMin, strengthMax)
		if len(centers) == 0 || stream.Float64() >= seededFrac {
			return geometry.V(
				stream.Uniform(bounds.Min.X, bounds.Max.X),
				stream.Uniform(bounds.Min.Y, bounds.Max.Y),
			), s
		}
		c := centers[stream.IntN(len(centers))]
		return geometry.V(
			stream.Normal(c.X, sigma),
			stream.Normal(c.Y, sigma),
		), s
	}
}
