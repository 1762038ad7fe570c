// Package config serializes scenarios to and from JSON so deployments
// can be described in files rather than code: sensor positions surveyed
// in the field, suspected source priors, known obstacle footprints, and
// the algorithm parameters. The format is versioned and validated on
// load.
package config

import (
	"encoding/json"
	"errors"
	"fmt"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/scenario"
	"radloc/internal/sensor"
)

// Version is the current config schema version.
const Version = 1

// ErrVersion is returned for configs with an unsupported version.
var ErrVersion = errors.New("config: unsupported version")

// File is the on-disk scenario description.
type File struct {
	Version   int             `json:"version"`
	Name      string          `json:"name"`
	Bounds    RectJSON        `json:"bounds"`
	Sensors   []SensorJSON    `json:"sensors"`
	Sources   []SourceJSON    `json:"sources,omitempty"`
	Obstacles []ObstacleJSON  `json:"obstacles,omitempty"`
	Params    scenario.Params `json:"params"`
	// OutOfOrder enables random-latency delivery; MeanLatencySteps is
	// the mean extra delay in time-step units.
	OutOfOrder       bool    `json:"outOfOrder,omitempty"`
	MeanLatencySteps float64 `json:"meanLatencySteps,omitempty"`
}

// RectJSON is an axis-aligned rectangle.
type RectJSON struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

// SensorJSON is one sensor.
type SensorJSON struct {
	ID         int     `json:"id"`
	X          float64 `json:"x"`
	Y          float64 `json:"y"`
	Efficiency float64 `json:"efficiency"`
	Background float64 `json:"backgroundCPM"`
}

// SourceJSON is one true source (for simulation configs).
type SourceJSON struct {
	X           float64 `json:"x"`
	Y           float64 `json:"y"`
	StrengthUCi float64 `json:"strengthUCi"`
}

// ObstacleJSON is one obstacle: a polygon ring plus either a material
// name or an explicit attenuation coefficient.
type ObstacleJSON struct {
	Name     string      `json:"name,omitempty"`
	Material string      `json:"material,omitempty"`
	Mu       float64     `json:"mu,omitempty"`
	Ring     [][]float64 `json:"ring"`
}

// FromScenario converts a scenario into its file form.
func FromScenario(sc scenario.Scenario) File {
	f := File{
		Version: Version,
		Name:    sc.Name,
		Bounds: RectJSON{
			MinX: sc.Bounds.Min.X, MinY: sc.Bounds.Min.Y,
			MaxX: sc.Bounds.Max.X, MaxY: sc.Bounds.Max.Y,
		},
		Params:           sc.Params,
		OutOfOrder:       sc.OutOfOrder,
		MeanLatencySteps: sc.MeanLatency,
	}
	for _, s := range sc.Sensors {
		f.Sensors = append(f.Sensors, SensorJSON{
			ID: s.ID, X: s.Pos.X, Y: s.Pos.Y,
			Efficiency: s.Efficiency, Background: s.Background,
		})
	}
	for _, s := range sc.Sources {
		f.Sources = append(f.Sources, SourceJSON{X: s.Pos.X, Y: s.Pos.Y, StrengthUCi: s.Strength})
	}
	for _, o := range sc.Obstacles {
		oj := ObstacleJSON{Name: o.Name, Mu: o.Mu}
		for _, v := range o.Shape.Vertices() {
			oj.Ring = append(oj.Ring, []float64{v.X, v.Y})
		}
		f.Obstacles = append(f.Obstacles, oj)
	}
	return f
}

// ToScenario converts a file into a validated scenario.
func (f File) ToScenario() (scenario.Scenario, error) {
	if f.Version != Version {
		return scenario.Scenario{}, fmt.Errorf("%w: %d (want %d)", ErrVersion, f.Version, Version)
	}
	sc := scenario.Scenario{
		Name: f.Name,
		Bounds: geometry.NewRect(
			geometry.V(f.Bounds.MinX, f.Bounds.MinY),
			geometry.V(f.Bounds.MaxX, f.Bounds.MaxY),
		),
		Params:      f.Params,
		OutOfOrder:  f.OutOfOrder,
		MeanLatency: f.MeanLatencySteps,
	}
	for _, s := range f.Sensors {
		sc.Sensors = append(sc.Sensors, sensor.Sensor{
			ID:         s.ID,
			Pos:        geometry.V(s.X, s.Y),
			Efficiency: s.Efficiency,
			Background: s.Background,
		})
	}
	for _, s := range f.Sources {
		sc.Sources = append(sc.Sources, radiation.Source{
			Pos:      geometry.V(s.X, s.Y),
			Strength: s.StrengthUCi,
		})
	}
	for i, o := range f.Obstacles {
		ob, err := o.toObstacle()
		if err != nil {
			return scenario.Scenario{}, fmt.Errorf("config: obstacle %d: %w", i, err)
		}
		sc.Obstacles = append(sc.Obstacles, ob)
	}
	if err := sc.Validate(); err != nil {
		return scenario.Scenario{}, err
	}
	return sc, nil
}

func (o ObstacleJSON) toObstacle() (radiation.Obstacle, error) {
	mu := o.Mu
	if o.Material != "" {
		m, err := radiation.Material(o.Material).Mu()
		if err != nil {
			return radiation.Obstacle{}, err
		}
		if mu != 0 && mu != m {
			return radiation.Obstacle{}, fmt.Errorf("both material %q (µ=%v) and explicit µ=%v given", o.Material, m, mu)
		}
		mu = m
	}
	if mu < 0 {
		return radiation.Obstacle{}, fmt.Errorf("negative µ %v", mu)
	}
	ring := make([]geometry.Vec, 0, len(o.Ring))
	for _, pt := range o.Ring {
		if len(pt) != 2 {
			return radiation.Obstacle{}, fmt.Errorf("ring point has %d coordinates", len(pt))
		}
		ring = append(ring, geometry.V(pt[0], pt[1]))
	}
	poly, err := geometry.NewPolygon(ring)
	if err != nil {
		return radiation.Obstacle{}, err
	}
	return radiation.Obstacle{Name: o.Name, Mu: mu, Shape: poly}, nil
}

// Marshal renders the file as indented JSON.
func Marshal(f File) ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}

// Unmarshal parses JSON into a File (without scenario validation; call
// ToScenario for that).
func Unmarshal(data []byte) (File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return File{}, fmt.Errorf("config: %w", err)
	}
	return f, nil
}

// LoadScenario parses and validates a JSON scenario in one step.
func LoadScenario(data []byte) (scenario.Scenario, error) {
	f, err := Unmarshal(data)
	if err != nil {
		return scenario.Scenario{}, err
	}
	return f.ToScenario()
}

// SaveScenario renders a scenario as JSON.
func SaveScenario(sc scenario.Scenario) ([]byte, error) {
	return Marshal(FromScenario(sc))
}
