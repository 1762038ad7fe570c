package meanshift

import (
	"fmt"
	"testing"

	"radloc/internal/rng"
)

// benchData builds a realistic particle population: two tight clusters
// plus diffuse background, mirroring a converged filter.
func benchData(n int) (Points, []float64) {
	var pts, ws, starts []float64
	s := rng.New(1, 1)
	for i := 0; i < n; i++ {
		var x, y, str float64
		switch i % 10 {
		case 0, 1, 2, 3:
			x, y, str = s.Normal(47, 2), s.Normal(71, 2), s.Normal(50, 5)
		case 4, 5, 6, 7:
			x, y, str = s.Normal(81, 2), s.Normal(42, 2), s.Normal(50, 5)
		default:
			x, y, str = s.Uniform(0, 100), s.Uniform(0, 100), s.Uniform(0, 200)
		}
		pts = append(pts, x, y, str)
		ws = append(ws, 1)
	}
	for i := 0; i < 192; i++ {
		j := s.IntN(n)
		starts = append(starts, pts[3*j], pts[3*j+1], pts[3*j+2])
	}
	return view(pts, ws), starts
}

// BenchmarkFindModes measures a search the way the localizer runs
// one: on a reused Searcher.
func BenchmarkFindModes(b *testing.B) {
	for _, n := range []int{2000, 15000} {
		pts, starts := benchData(n)
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("n%d-w%d", n, workers), func(b *testing.B) {
				s := newSearcher(b, Config{Bandwidth: [3]float64{4, 4, 30}, Workers: workers})
				if _, err := s.FindModes(pts, starts); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := s.FindModes(pts, starts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAssignMass(b *testing.B) {
	pts, starts := benchData(15000)
	s := newSearcher(b, Config{Bandwidth: [3]float64{4, 4, 30}})
	modes, err := s.FindModes(pts, starts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AssignMass(modes, pts, 3); err != nil {
			b.Fatal(err)
		}
	}
}
