// Package rng provides the deterministic random-number streams used by
// the simulator and the particle filter.
//
// Every run of an experiment is driven by a single root seed; named
// sub-streams are derived from it so that, for example, the measurement
// noise of trial 7 is identical no matter how many goroutines execute
// the other trials. The generator is based on math/rand/v2's PCG but is
// wrapped so all domain-specific variates (Poisson, Gaussian,
// point-in-rect) live in one audited place.
package rng

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// Stream is a deterministic random variate generator. It is NOT safe
// for concurrent use; derive one Stream per goroutine via Split.
type Stream struct {
	src *rand.Rand
	pcg *rand.PCG
}

// New returns a Stream seeded with the two words of seed material.
func New(seed1, seed2 uint64) *Stream {
	pcg := rand.NewPCG(seed1, seed2)
	return &Stream{src: rand.New(pcg), pcg: pcg}
}

// MarshalBinary captures the generator's exact position so a restored
// Stream continues the identical variate sequence — the foundation of
// checkpointed crash recovery, where "replay the WAL tail" is only
// sound if the filter's randomness resumes where it left off.
func (s *Stream) MarshalBinary() ([]byte, error) {
	return s.pcg.MarshalBinary()
}

// UnmarshalBinary restores a position captured by MarshalBinary.
func (s *Stream) UnmarshalBinary(data []byte) error {
	return s.pcg.UnmarshalBinary(data)
}

// NewNamed derives a stream from a root seed and a human-readable
// purpose label ("measurements", "particles/init", ...). Identical
// (seed, name) pairs always yield identical streams.
func NewNamed(seed uint64, name string) *Stream {
	h := fnv.New64a()
	// fnv Write never fails.
	_, _ = h.Write([]byte(name))
	return New(seed, h.Sum64())
}

// Split derives an independent child stream; the parent advances by two
// draws. Use it to hand one stream to each worker goroutine.
func (s *Stream) Split() *Stream {
	return New(s.src.Uint64(), s.src.Uint64())
}

// Float64 returns a uniform variate in [0, 1).
func (s *Stream) Float64() float64 { return s.src.Float64() }

// Uniform returns a uniform variate in [lo, hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.src.Float64()
}

// IntN returns a uniform integer in [0, n). n must be positive.
func (s *Stream) IntN(n int) int { return s.src.IntN(n) }

// Normal returns a Gaussian variate with the given mean and standard
// deviation (sigma ≥ 0; sigma = 0 returns mean).
func (s *Stream) Normal(mean, sigma float64) float64 {
	if sigma <= 0 {
		return mean
	}
	return mean + sigma*s.src.NormFloat64()
}

// Poisson returns a Poisson variate with mean lambda.
//
// Small means use Knuth's product method; large means (λ > 30) use the
// PTRS transformed-rejection sampler of Hörmann (1993), which is O(1)
// and exact. Non-positive or non-finite lambda returns 0.
func (s *Stream) Poisson(lambda float64) int {
	switch {
	case !(lambda > 0) || math.IsInf(lambda, 0):
		return 0
	case lambda < 30:
		return s.poissonKnuth(lambda)
	default:
		return s.poissonPTRS(lambda)
	}
}

func (s *Stream) poissonKnuth(lambda float64) int {
	limit := math.Exp(-lambda)
	p := 1.0
	k := 0
	for {
		p *= s.src.Float64()
		if p <= limit {
			return k
		}
		k++
	}
}

// poissonPTRS implements Hörmann's PTRS algorithm.
func (s *Stream) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	logLambda := math.Log(lambda)
	for {
		u := s.src.Float64() - 0.5
		v := s.src.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*logLambda-lambda-lg {
			return int(k)
		}
	}
}

// Exponential returns an exponential variate with the given mean
// (mean ≤ 0 returns 0).
func (s *Stream) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.src.ExpFloat64() * mean
}
