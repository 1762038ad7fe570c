package main

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"radloc/internal/obs"
	"radloc/internal/stat"
)

// quantile is stat.Quantile, except that no samples give NaN rather
// than 0, so a metric without samples is not mistaken for a measured 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stat.Quantile(xs, q)
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// scrape is one reading of a registry's Prometheus text exposition:
// series ("name{labels}") to value. Differencing two scrapes gives the
// window's own counts, sums and histogram buckets, free of what boot
// replay recorded.
type scrape map[string]float64

func scrapeRegistry(reg *obs.Registry) scrape {
	var b bytes.Buffer
	_ = reg.WriteText(&b) // a bytes.Buffer write cannot fail
	s := scrape{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] = v
		}
	}
	return s
}

// seriesName splits a series key into its metric name and label body.
func seriesName(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i+1 : len(key)-1]
	}
	return key, ""
}

// sum adds up, over every series of name whose labels contain all of
// match, the change from before to after.
func sum(before, after scrape, name string, match ...string) float64 {
	var total float64
	for key, v := range after {
		if n, labels := seriesName(key); n == name && containsAll(labels, match) {
			total += v - before[key]
		}
	}
	return total
}

func containsAll(labels string, match []string) bool {
	for _, m := range match {
		if !strings.Contains(labels, m) {
			return false
		}
	}
	return true
}

// histQuantile estimates the q-quantile of the observations histogram
// name received between the scrapes, merged over every series matching
// match, by linear interpolation inside the containing bucket as
// internal/obs does. NaN when nothing was observed.
func histQuantile(before, after scrape, q float64, name string, match ...string) float64 {
	cum := map[float64]float64{}
	for key, v := range after {
		n, labels := seriesName(key)
		if n != name+"_bucket" || !containsAll(labels, match) {
			continue
		}
		i := strings.Index(labels, `le="`)
		if i < 0 {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(labels[i+4:], `"`), 64)
		if err != nil {
			continue
		}
		cum[le] += v - before[key]
	}
	bounds := make([]float64, 0, len(cum))
	for le := range cum {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || cum[bounds[len(bounds)-1]] <= 0 {
		return math.NaN()
	}
	rank := q * cum[bounds[len(bounds)-1]]
	prevCum, lower := 0.0, 0.0
	for _, le := range bounds {
		c := cum[le]
		if c >= rank && c > prevCum {
			if math.IsInf(le, 1) {
				return lower
			}
			return lower + (rank-prevCum)/(c-prevCum)*(le-lower)
		}
		prevCum, lower = c, le
	}
	return lower
}
