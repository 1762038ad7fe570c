// Package eval scores localizer output against ground truth using the
// paper's conventions (Section VI): each estimate may explain at most
// one source; a source with no estimate within the match radius
// (40 length units in the paper) is a false negative; an estimate that
// cannot be traced to any source is a false positive; the localization
// error of a matched source is its distance to the matched estimate.
package eval

import (
	"math"
	"sort"

	"radloc/internal/core"
	"radloc/internal/radiation"
)

// Matching is the outcome of associating estimates with true sources.
type Matching struct {
	// Err[i] is the localization error of source i, or NaN if the
	// source is a false negative.
	Err []float64
	// EstOf[i] is the index (into the estimate slice) matched to source
	// i, or -1.
	EstOf []int
	// FalsePos is the number of estimates not matched to any source.
	FalsePos int
	// FalseNeg is the number of sources with no matched estimate.
	FalseNeg int
}

// MeanError returns the mean error over matched sources, or NaN when
// nothing matched.
func (m Matching) MeanError() float64 {
	var sum float64
	n := 0
	for _, e := range m.Err {
		if !math.IsNaN(e) {
			sum += e
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Match associates estimates to sources one-to-one by greedy globally
// nearest pairing, accepting only pairs within radius.
func Match(estimates []core.Estimate, sources []radiation.Source, radius float64) Matching {
	m := Matching{
		Err:   make([]float64, len(sources)),
		EstOf: make([]int, len(sources)),
	}
	for i := range m.Err {
		m.Err[i] = math.NaN()
		m.EstOf[i] = -1
	}

	type pair struct {
		d   float64
		src int
		est int
	}
	var pairs []pair
	for si, src := range sources {
		for ei, est := range estimates {
			if d := est.Pos.Dist(src.Pos); d <= radius {
				pairs = append(pairs, pair{d: d, src: si, est: ei})
			}
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].d < pairs[b].d })

	srcUsed := make([]bool, len(sources))
	estUsed := make([]bool, len(estimates))
	for _, p := range pairs {
		if srcUsed[p.src] || estUsed[p.est] {
			continue
		}
		srcUsed[p.src] = true
		estUsed[p.est] = true
		m.Err[p.src] = p.d
		m.EstOf[p.src] = p.est
	}
	for _, used := range srcUsed {
		if !used {
			m.FalseNeg++
		}
	}
	for _, used := range estUsed {
		if !used {
			m.FalsePos++
		}
	}
	return m
}

// Series aggregates a per-step, per-trial metric into a per-step mean,
// ignoring NaN entries (unmatched sources). rows[t][r] is trial r's
// value at step t.
func Series(rows [][]float64) []float64 {
	out := make([]float64, len(rows))
	for t, row := range rows {
		var sum float64
		n := 0
		for _, v := range row {
			if !math.IsNaN(v) {
				sum += v
				n++
			}
		}
		if n == 0 {
			out[t] = math.NaN()
		} else {
			out[t] = sum / float64(n)
		}
	}
	return out
}

// MeanOverWindow averages xs[from:to] ignoring NaNs (the paper averages
// time steps 5–29 for its per-source obstacle-benefit figures).
func MeanOverWindow(xs []float64, from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(xs) {
		to = len(xs)
	}
	var sum float64
	n := 0
	for i := from; i < to; i++ {
		if !math.IsNaN(xs[i]) {
			sum += xs[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
