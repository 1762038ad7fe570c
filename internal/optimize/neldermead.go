// Package optimize provides the derivative-free minimizers the baseline
// estimators need: the Nelder–Mead downhill simplex with optional box
// constraints, and a multi-start wrapper for the multimodal likelihood
// surfaces that multi-source localization produces.
package optimize

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"radloc/internal/rng"
)

// Problem is an objective to minimize, optionally box-constrained.
// Lower/Upper may be nil (unconstrained) but must otherwise match the
// dimension of the start point; evaluation points are clamped into the
// box.
type Problem struct {
	F     func(x []float64) float64
	Lower []float64
	Upper []float64
}

// Options tune the simplex search; zero values select defaults.
type Options struct {
	MaxIter int // default 200·d
}

// The simplex converges once both its spread of values is below tolF
// and its diameter below tolX.
const (
	tolF = 1e-8
	tolX = 1e-6
)

// Result is the outcome of a minimization.
type Result struct {
	X         []float64
	F         float64
	Iters     int
	Converged bool
}

// ErrBadProblem reports an unusable problem definition.
var ErrBadProblem = errors.New("optimize: bad problem")

// NelderMead minimizes p.F starting from x0.
func NelderMead(p Problem, x0 []float64, opts Options) (Result, error) {
	d := len(x0)
	if d == 0 || p.F == nil {
		return Result{}, fmt.Errorf("%w: empty start or nil objective", ErrBadProblem)
	}
	if (p.Lower != nil && len(p.Lower) != d) || (p.Upper != nil && len(p.Upper) != d) {
		return Result{}, fmt.Errorf("%w: bounds dimension mismatch", ErrBadProblem)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 200 * d
	}

	clamp := func(x []float64) {
		for i := range x {
			if p.Lower != nil && x[i] < p.Lower[i] {
				x[i] = p.Lower[i]
			}
			if p.Upper != nil && x[i] > p.Upper[i] {
				x[i] = p.Upper[i]
			}
		}
	}
	eval := func(x []float64) float64 {
		clamp(x)
		v := p.F(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// The initial simplex edge is 5% of a bounded box's mean side, 1
	// without bounds.
	step := 1.0
	if p.Lower != nil && p.Upper != nil {
		var span float64
		for i := range x0 {
			span += p.Upper[i] - p.Lower[i]
		}
		step = 0.05 * span / float64(d)
		if step <= 0 {
			step = 1
		}
	}

	// Initial simplex: x0 plus a step along each axis.
	simplex := make([][]float64, d+1)
	values := make([]float64, d+1)
	for i := range simplex {
		v := make([]float64, d)
		copy(v, x0)
		if i > 0 {
			v[i-1] += step
		}
		simplex[i] = v
		values[i] = eval(v)
	}

	const (
		alpha = 1.0 // reflection
		gamma = 2.0 // expansion
		rho   = 0.5 // contraction
		sigma = 0.5 // shrink
	)

	order := make([]int, d+1)
	centroid := make([]float64, d)
	trial := make([]float64, d)
	trial2 := make([]float64, d)

	var iters int
	for iters = 0; iters < opts.MaxIter; iters++ {
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return values[order[a]] < values[order[b]] })
		best, worst, second := order[0], order[d], order[d-1]

		// Convergence: value spread and simplex size.
		if math.Abs(values[worst]-values[best]) < tolF && simplexDiameter(simplex) < tolX {
			return Result{X: simplex[best], F: values[best], Iters: iters, Converged: true}, nil
		}

		// Centroid of all but the worst.
		for k := range centroid {
			centroid[k] = 0
		}
		for _, i := range order[:d] {
			for k := 0; k < d; k++ {
				centroid[k] += simplex[i][k]
			}
		}
		for k := range centroid {
			centroid[k] /= float64(d)
		}

		// Reflect.
		for k := 0; k < d; k++ {
			trial[k] = centroid[k] + alpha*(centroid[k]-simplex[worst][k])
		}
		fr := eval(trial)
		switch {
		case fr < values[best]:
			// Expand.
			for k := 0; k < d; k++ {
				trial2[k] = centroid[k] + gamma*(trial[k]-centroid[k])
			}
			fe := eval(trial2)
			if fe < fr {
				copy(simplex[worst], trial2)
				values[worst] = fe
			} else {
				copy(simplex[worst], trial)
				values[worst] = fr
			}
		case fr < values[second]:
			copy(simplex[worst], trial)
			values[worst] = fr
		default:
			// Contract.
			for k := 0; k < d; k++ {
				trial2[k] = centroid[k] + rho*(simplex[worst][k]-centroid[k])
			}
			fc := eval(trial2)
			if fc < values[worst] {
				copy(simplex[worst], trial2)
				values[worst] = fc
			} else {
				// Shrink toward the best vertex.
				for _, i := range order[1:] {
					for k := 0; k < d; k++ {
						simplex[i][k] = simplex[best][k] + sigma*(simplex[i][k]-simplex[best][k])
					}
					values[i] = eval(simplex[i])
				}
			}
		}
	}

	bi := 0
	for i := 1; i <= d; i++ {
		if values[i] < values[bi] {
			bi = i
		}
	}
	return Result{X: simplex[bi], F: values[bi], Iters: iters, Converged: false}, nil
}

// MultiStart runs NelderMead from n random starts drawn uniformly from
// the problem's box (which must be fully specified) and returns the
// best result.
func MultiStart(p Problem, n int, stream *rng.Stream, opts Options) (Result, error) {
	if p.Lower == nil || p.Upper == nil || len(p.Lower) != len(p.Upper) || len(p.Lower) == 0 {
		return Result{}, fmt.Errorf("%w: MultiStart needs full box bounds", ErrBadProblem)
	}
	if n < 1 {
		n = 1
	}
	d := len(p.Lower)
	best := Result{F: math.Inf(1)}
	for run := 0; run < n; run++ {
		x0 := make([]float64, d)
		for k := 0; k < d; k++ {
			x0[k] = stream.Uniform(p.Lower[k], p.Upper[k])
		}
		r, err := NelderMead(p, x0, opts)
		if err != nil {
			return Result{}, err
		}
		if r.F < best.F {
			best = r
		}
	}
	return best, nil
}

func simplexDiameter(simplex [][]float64) float64 {
	var maxD float64
	for i := 1; i < len(simplex); i++ {
		var d2 float64
		for k := range simplex[i] {
			diff := simplex[i][k] - simplex[0][k]
			d2 += diff * diff
		}
		maxD = math.Max(maxD, math.Sqrt(d2))
	}
	return maxD
}
