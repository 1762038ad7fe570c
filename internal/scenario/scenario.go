// Package scenario assembles the deployment layouts evaluated in the
// paper: surveillance area, sensors, true sources, obstacles, and the
// algorithm parameters the paper fixes for each (fusion range, particle
// count, resampling noise).
//
// Scenario A: 100×100 area, 6×6 sensor grid, optional U-shaped obstacle
// (Fig. 8a). Scenario B: 260×260 area, 14×14 grid (196 sensors),
// 9 sources of 10–100 µCi and three obstacles of uneven thickness
// (Fig. 8b). Scenario C: Scenario B's sources/obstacles with 195
// sensors from a Poisson point process and out-of-order delivery
// (Fig. 8c). Obstacle coordinates are digitized approximately from
// Fig. 8 — see DESIGN.md §5.
package scenario

import (
	"fmt"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

// Params are the algorithm parameters the paper sets per scenario
// (Section VI).
type Params struct {
	NumParticles    int     `json:"numParticles"`           // |P|
	FusionRange     float64 `json:"fusionRange"`            // d_i, identical for all sensors in grid layouts
	ResampleNoise   float64 `json:"resampleNoise"`          // σ_N
	InjectionFrac   float64 `json:"injectionFrac"`          // fraction of resampled particles replaced at random
	MaxStrength     float64 `json:"maxStrengthUCi"`         // upper bound of the strength prior, µCi
	TimeSteps       int     `json:"timeSteps"`              // simulation horizon T
	MatchRadius     float64 `json:"matchRadius"`            // estimate↔source association radius (40 in the paper)
	BandwidthXY     float64 `json:"bandwidthXY"`            // mean-shift kernel bandwidth in position
	BandwidthStr    float64 `json:"bandwidthStr"`           // mean-shift kernel bandwidth in strength
	ModeMassMin     float64 `json:"modeMassMin"`            // minimum relative kernel mass to report a mode as a source
	MinSourceStr    float64 `json:"minSourceStrengthUCi"`   // minimum strength (µCi) for a mode to count as a source
	MaxSensorGap    float64 `json:"maxSensorGap,omitempty"` // suppress modes farther than this from every sensor (0 = off)
	MeanShiftStarts int     `json:"meanShiftStarts"`        // number of mean-shift start points
}

// DefaultParams returns the paper's Scenario A parameter set.
func DefaultParams() Params {
	return Params{
		NumParticles:    2000,
		FusionRange:     28,
		ResampleNoise:   3.0,
		InjectionFrac:   0.05,
		MaxStrength:     200,
		TimeSteps:       30,
		MatchRadius:     40,
		BandwidthXY:     4,
		BandwidthStr:    30,
		ModeMassMin:     0.04,
		MinSourceStr:    2,
		MeanShiftStarts: 192,
	}
}

// Scenario is a complete experiment configuration.
type Scenario struct {
	Name      string
	Bounds    geometry.Rect
	Sensors   []sensor.Sensor
	Sources   []radiation.Source
	Obstacles []radiation.Obstacle
	Params    Params
	// OutOfOrder marks scenarios whose delivery plan should use random
	// latency (Scenario C).
	OutOfOrder bool
	// MeanLatency is the mean extra delivery delay in time-step units
	// when OutOfOrder is set.
	MeanLatency float64
}

// Validate checks that the scenario is internally consistent.
func (sc Scenario) Validate() error {
	if len(sc.Sensors) == 0 {
		return fmt.Errorf("scenario %q: no sensors", sc.Name)
	}
	if sc.Bounds.Width() <= 0 || sc.Bounds.Height() <= 0 {
		return fmt.Errorf("scenario %q: empty bounds", sc.Name)
	}
	if sc.Params.NumParticles < 1 {
		return fmt.Errorf("scenario %q: %d particles", sc.Name, sc.Params.NumParticles)
	}
	if sc.Params.FusionRange <= 0 {
		return fmt.Errorf("scenario %q: fusion range %v", sc.Name, sc.Params.FusionRange)
	}
	if sc.Params.TimeSteps < 1 {
		return fmt.Errorf("scenario %q: %d time steps", sc.Name, sc.Params.TimeSteps)
	}
	for i, src := range sc.Sources {
		if src.Strength <= 0 {
			return fmt.Errorf("scenario %q: source %d has strength %v", sc.Name, i, src.Strength)
		}
		if !sc.Bounds.Contains(src.Pos) {
			return fmt.Errorf("scenario %q: source %d at %v outside bounds", sc.Name, i, src.Pos)
		}
	}
	for i, sn := range sc.Sensors {
		if sn.Efficiency <= 0 {
			return fmt.Errorf("scenario %q: sensor %d efficiency %v", sc.Name, i, sn.Efficiency)
		}
	}
	return nil
}

// WithSources returns a copy of sc with the source list replaced.
func (sc Scenario) WithSources(srcs []radiation.Source) Scenario {
	out := sc
	out.Sources = append([]radiation.Source(nil), srcs...)
	return out
}

// WithBackground returns a copy of sc with every sensor's background
// rate set to cpm (the Fig. 6 sweep).
func (sc Scenario) WithBackground(cpm float64) Scenario {
	out := sc
	out.Sensors = append([]sensor.Sensor(nil), sc.Sensors...)
	for i := range out.Sensors {
		out.Sensors[i].Background = cpm
	}
	return out
}

// A returns the paper's Scenario A: 100×100 area, 36 grid sensors,
// background 5 CPM, two sources at (47,71) and (81,42) with the given
// strength (µCi). Pass withObstacle to add the U-shaped obstacle of
// Fig. 8(a).
func A(strength float64, withObstacle bool) Scenario {
	bounds := geometry.NewRect(geometry.V(0, 0), geometry.V(100, 100))
	sc := Scenario{
		Name:    fmt.Sprintf("A/%gµCi", strength),
		Bounds:  bounds,
		Sensors: sensor.Grid(bounds, 6, 6, sensor.DefaultEfficiency, 5),
		Sources: []radiation.Source{
			{Pos: geometry.V(47, 71), Strength: strength},
			{Pos: geometry.V(81, 42), Strength: strength},
		},
		Params: DefaultParams(),
	}
	if withObstacle {
		sc.Name += "/obstacle"
		sc.Obstacles = []radiation.Obstacle{UObstacle()}
	}
	return sc
}

// AThreeSources returns the three-source variant of Scenario A used in
// Fig. 5: sources at (87,89), (37,14), (55,51).
func AThreeSources(strength float64) Scenario {
	sc := A(strength, false)
	sc.Name = fmt.Sprintf("A3/%gµCi", strength)
	sc.Sources = []radiation.Source{
		{Pos: geometry.V(87, 89), Strength: strength},
		{Pos: geometry.V(37, 14), Strength: strength},
		{Pos: geometry.V(55, 51), Strength: strength},
	}
	return sc
}

// UObstacle is the U-shaped obstacle in the middle of Scenario A
// (Fig. 8a): wall thickness 2 length units, attenuation µ = 0.0693
// (half-intensity per 10 units). The U opens upward and sits between
// the two sources.
func UObstacle() radiation.Obstacle {
	const th = 2.0
	// Footprint roughly centered in the area: x ∈ [40,72], y ∈ [30,62].
	return radiation.Obstacle{
		Name: "U",
		Mu:   radiation.PaperObstacle.MustMu(),
		Shape: geometry.MustPolygon([]geometry.Vec{
			geometry.V(40, 30), geometry.V(72, 30), geometry.V(72, 62),
			geometry.V(72-th, 62), geometry.V(72-th, 30+th),
			geometry.V(40+th, 30+th), geometry.V(40+th, 62), geometry.V(40, 62),
		}),
	}
}

// bSources are the nine sources of Scenarios B and C (positions
// digitized from Fig. 8b; strengths non-uniform in 10–100 µCi as the
// paper specifies).
func bSources() []radiation.Source {
	return []radiation.Source{
		{Pos: geometry.V(40, 225), Strength: 30},   // S1
		{Pos: geometry.V(70, 180), Strength: 10},   // S2
		{Pos: geometry.V(150, 185), Strength: 20},  // S3
		{Pos: geometry.V(230, 230), Strength: 100}, // S4
		{Pos: geometry.V(130, 130), Strength: 40},  // S5
		{Pos: geometry.V(55, 60), Strength: 15},    // S6
		{Pos: geometry.V(200, 140), Strength: 60},  // S7
		{Pos: geometry.V(225, 55), Strength: 25},   // S8
		{Pos: geometry.V(130, 30), Strength: 80},   // S9
	}
}

// bObstacles are the three uneven-thickness obstacles of Scenarios B
// and C. They are placed near S2/S3, S5/S6 and S7/S9 so that (as in
// Fig. 9c) most nearby sources gain isolation while S5 — boxed in
// between the second obstacle and its nearest sensors — can lose
// accuracy.
func bObstacles() []radiation.Obstacle {
	mu := radiation.PaperObstacle.MustMu()
	return []radiation.Obstacle{
		{
			Name: "B1", Mu: mu,
			// L-shaped wall separating S2 from S3, thicker at the base.
			Shape: geometry.MustPolygon([]geometry.Vec{
				geometry.V(100, 160), geometry.V(106, 160), geometry.V(106, 206),
				geometry.V(130, 206), geometry.V(130, 212), geometry.V(100, 212),
			}),
		},
		{
			Name: "B2", Mu: 1.5 * mu,
			// Slab between S5 and S6, uneven thickness (tapered).
			Shape: geometry.MustPolygon([]geometry.Vec{
				geometry.V(80, 90), geometry.V(150, 98), geometry.V(150, 106),
				geometry.V(80, 96),
			}),
		},
		{
			Name: "B3", Mu: mu,
			// Vertical wall between S7/S8 and S9.
			Shape: geometry.MustPolygon([]geometry.Vec{
				geometry.V(172, 40), geometry.V(176, 40), geometry.V(178, 120),
				geometry.V(172, 120),
			}),
		},
	}
}

// B returns the paper's Scenario B: 260×260 area, 14×14 = 196 grid
// sensors, 9 sources, 3 obstacles, 15 000 particles.
func B(withObstacles bool) Scenario {
	bounds := geometry.NewRect(geometry.V(0, 0), geometry.V(260, 260))
	p := DefaultParams()
	p.NumParticles = 15000
	p.MeanShiftStarts = 384
	// Nine sources split the particle mass nine ways in a 6.8× larger
	// area, so a single mode holds less relative mass than in Scenario
	// A; the strength floor rises instead to keep false positives down.
	p.ModeMassMin = 0.02
	p.MinSourceStr = 4
	sc := Scenario{
		Name:    "B",
		Bounds:  bounds,
		Sensors: sensor.Grid(bounds, 14, 14, sensor.DefaultEfficiency, 5),
		Sources: bSources(),
		Params:  p,
	}
	if withObstacles {
		sc.Obstacles = bObstacles()
	} else {
		sc.Name += "/no-obstacles"
	}
	return sc
}

// C returns the paper's Scenario C: Scenario B's sources and obstacles
// with 195 sensors placed by a Poisson point process (seeded so the
// layout is reproducible) and out-of-order measurement delivery.
func C(withObstacles bool, layoutSeed uint64) Scenario {
	sc := B(withObstacles)
	sc.Name = "C"
	if !withObstacles {
		sc.Name += "/no-obstacles"
	}
	stream := rng.NewNamed(layoutSeed, "scenario-c/sensor-layout")
	sc.Sensors = sensor.PoissonField(sc.Bounds, 195, stream, sensor.DefaultEfficiency, 5)
	sc.OutOfOrder = true
	sc.MeanLatency = 0.5
	// Random placement leaves pockets no sensor can see into; modes
	// there are unverifiable strong-far/weak-near ambiguities, so the
	// observability filter suppresses them (grid layouts have no such
	// pockets and keep the filter off).
	sc.Params.MaxSensorGap = 18
	return sc
}
