package baseline

import (
	"fmt"
	"math"
	"sort"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
)

// The grid decomposition's fixed settings.
const (
	// gridCellsX, gridCellsY set the discretization: finer grids make
	// this inverse problem underdetermined with sparse sensor coverage
	// and smear mass onto sensor-adjacent cells. The paper's [16]
	// reports runtimes up to 209 s for fine grids — the cost the
	// particle filter avoids.
	gridCellsX, gridCellsY = 10, 10
	// gridIters is the number of multiplicative updates.
	gridIters = 1500
	// gridMinStrength is the per-cell strength (µCi) below which a
	// cell is considered empty when extracting sources.
	gridMinStrength = 2.0
	// gridSparsity is the ℓ1 penalty weight β added to the
	// multiplicative denominator; it plays the role of [16]'s sparse
	// convex program, concentrating mass into few cells instead of
	// smearing it across the sensor-adjacent cells of this
	// underdetermined inverse problem.
	gridSparsity = 0.5
)

// GridConfig configures the grid-decomposition estimator of Cheng &
// Singh [16]: hypothesize one source per grid cell and recover the
// non-negative per-cell strength field that best explains the readings.
type GridConfig struct {
	// Bounds is the surveillance area.
	Bounds geometry.Rect
}

// GridResult is the recovered strength field plus extracted sources.
type GridResult struct {
	// Field[cy*CellsX+cx] is the estimated strength in each cell.
	Field  []float64
	CellsX int
	CellsY int
	// Sources are the local maxima of the field above 2 µCi,
	// with strength aggregated over each maximum's neighbourhood.
	Sources []radiation.Source
}

// GridDecompose recovers a non-negative source-strength field on a grid
// from Poisson readings using ℓ1-regularized Richardson–Lucy
// multiplicative updates (the EM algorithm for the Poisson linear
// inverse problem, a stdlib-only stand-in for [16]'s sparse convex
// program):
//
//	a_c ← a_c · Σ_i g_ic m_i/λ_i / (Σ_i g_ic + β),  λ_i = B_i + Σ_c g_ic a_c
func GridDecompose(readings []Reading, cfg GridConfig) (GridResult, error) {
	if len(readings) == 0 {
		return GridResult{}, ErrNoReadings
	}
	if cfg.Bounds.Width() <= 0 || cfg.Bounds.Height() <= 0 {
		return GridResult{}, fmt.Errorf("baseline: empty grid bounds")
	}

	nc := gridCellsX * gridCellsY
	n := len(readings)

	// Response matrix g[i][c]: CPM per µCi placed at cell c's center,
	// observed by reading i's sensor.
	g := make([]float64, n*nc)
	colSum := make([]float64, nc)
	centers := make([]geometry.Vec, nc)
	for cy := 0; cy < gridCellsY; cy++ {
		for cx := 0; cx < gridCellsX; cx++ {
			c := cy*gridCellsX + cx
			centers[c] = geometry.V(
				cfg.Bounds.Min.X+(float64(cx)+0.5)*cfg.Bounds.Width()/float64(gridCellsX),
				cfg.Bounds.Min.Y+(float64(cy)+0.5)*cfg.Bounds.Height()/float64(gridCellsY),
			)
		}
	}
	for i, r := range readings {
		for c := 0; c < nc; c++ {
			unit := radiation.Source{Pos: centers[c], Strength: 1}
			v := radiation.CPMPerMicroCurie * r.Sensor.Efficiency *
				radiation.FreeSpaceIntensity(r.Sensor.Pos, unit)
			g[i*nc+c] = v
			colSum[c] += v
		}
	}

	// Multiplicative updates from a flat positive field.
	field := make([]float64, nc)
	for c := range field {
		field[c] = 1
	}
	lambda := make([]float64, n)
	num := make([]float64, nc)
	for it := 0; it < gridIters; it++ {
		for i, r := range readings {
			l := r.Sensor.Background
			row := g[i*nc : (i+1)*nc]
			for c, a := range field {
				l += row[c] * a
			}
			lambda[i] = math.Max(l, 1e-12)
		}
		for c := range num {
			num[c] = 0
		}
		for i, r := range readings {
			ratio := float64(r.CPM) / lambda[i]
			row := g[i*nc : (i+1)*nc]
			for c := range num {
				num[c] += row[c] * ratio
			}
		}
		for c := range field {
			if colSum[c] > 0 {
				field[c] *= num[c] / (colSum[c] + gridSparsity)
			}
		}
	}

	res := GridResult{Field: field, CellsX: gridCellsX, CellsY: gridCellsY}
	res.Sources = extractPeaks(field, centers)
	return res, nil
}

// extractPeaks finds local maxima of the field above the strength
// floor, aggregating each peak's 8-neighbourhood into one source.
func extractPeaks(field []float64, centers []geometry.Vec) []radiation.Source {
	var out []radiation.Source
	at := func(cx, cy int) float64 {
		if cx < 0 || cy < 0 || cx >= gridCellsX || cy >= gridCellsY {
			return -1
		}
		return field[cy*gridCellsX+cx]
	}
	for cy := 0; cy < gridCellsY; cy++ {
		for cx := 0; cx < gridCellsX; cx++ {
			v := at(cx, cy)
			if v < gridMinStrength {
				continue
			}
			peak := true
			var cluster float64
			var wx, wy float64
			for dy := -1; dy <= 1 && peak; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nv := at(cx+dx, cy+dy)
					if nv > v || (nv == v && (dy < 0 || (dy == 0 && dx < 0))) {
						peak = false
						break
					}
					if nv > 0 {
						c := (cy+dy)*gridCellsX + (cx + dx)
						cluster += nv
						wx += nv * centers[c].X
						wy += nv * centers[c].Y
					}
				}
			}
			if peak && cluster > 0 {
				out = append(out, radiation.Source{
					Pos:      geometry.V(wx/cluster, wy/cluster),
					Strength: cluster,
				})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Strength > out[b].Strength })
	return out
}
