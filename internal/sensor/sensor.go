// Package sensor models the radiation sensors of Section III: each
// sensor counts ionization events over a fixed interval, reporting
// counts per minute (CPM) distributed Poisson with mean given by
// Eq. (4). Sensors differ in counting efficiency (manufacturing bias)
// and observe a site-specific background rate.
package sensor

import (
	"errors"
	"fmt"

	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
)

// DefaultEfficiency is the counting-efficiency constant E_i used when a
// scenario does not specify one. See DESIGN.md §3: it places a 4 µCi
// source at grid-neighbour distance on par with a 5 CPM background,
// reproducing the paper's "weak source resembles background" regime.
const DefaultEfficiency = 1e-4

// Sensor is a radiation counter at a known position.
type Sensor struct {
	ID         int
	Pos        geometry.Vec
	Efficiency float64 // counting efficiency E_i, > 0
	Background float64 // background rate B_i in CPM, ≥ 0
}

// String implements fmt.Stringer.
func (s Sensor) String() string {
	return fmt.Sprintf("sensor %d at %v (E=%.3g, B=%.3g CPM)", s.ID, s.Pos, s.Efficiency, s.Background)
}

// ExpectedCPM returns the sensor's expected reading for the given
// ground truth (Eq. 4).
func (s Sensor) ExpectedCPM(sources []radiation.Source, obstacles []radiation.Obstacle) float64 {
	return radiation.ExpectedCPM(s.Pos, s.Efficiency, s.Background, sources, obstacles)
}

// Measurement is a single reading delivered to the localizer.
type Measurement struct {
	SensorID int
	Pos      geometry.Vec // sensor position (sensors are at known locations)
	CPM      int          // observed counts per minute
	Step     int          // time step at which the reading was taken
}

// Measure draws one Poisson-distributed reading from the sensor given
// the true sources and obstacles.
func (s Sensor) Measure(stream *rng.Stream, sources []radiation.Source, obstacles []radiation.Obstacle, step int) Measurement {
	lambda := s.ExpectedCPM(sources, obstacles)
	return Measurement{
		SensorID: s.ID,
		Pos:      s.Pos,
		CPM:      stream.Poisson(lambda),
		Step:     step,
	}
}

// ErrNoReadings is returned by Calibrate when no readings are supplied.
var ErrNoReadings = errors.New("sensor: no calibration readings")

// Calibrate estimates a sensor's counting efficiency from repeated
// readings taken with a single known check source and no obstacles,
// following the calibration procedure referenced from Chin et al.
// (SenSys 2008): Ê = (mean(CPM) − B) / (2.22×10⁶ · I_FS).
func Calibrate(readings []int, sensorPos geometry.Vec, background float64, known radiation.Source) (float64, error) {
	if len(readings) == 0 {
		return 0, ErrNoReadings
	}
	intensity := radiation.FreeSpaceIntensity(sensorPos, known)
	if intensity <= 0 {
		return 0, fmt.Errorf("sensor: check source yields zero intensity at %v", sensorPos)
	}
	var sum float64
	for _, r := range readings {
		sum += float64(r)
	}
	mean := sum/float64(len(readings)) - background
	if mean < 0 {
		mean = 0
	}
	return mean / (radiation.CPMPerMicroCurie * intensity), nil
}

// Grid places nx × ny sensors in a uniform grid covering bounds
// (inclusive of the boundary rows/columns, as in the paper's layouts),
// all with the given efficiency and background.
func Grid(bounds geometry.Rect, nx, ny int, efficiency, background float64) []Sensor {
	if nx < 1 || ny < 1 {
		return nil
	}
	out := make([]Sensor, 0, nx*ny)
	id := 0
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			fx, fy := 0.5, 0.5
			if nx > 1 {
				fx = float64(ix) / float64(nx-1)
			}
			if ny > 1 {
				fy = float64(iy) / float64(ny-1)
			}
			out = append(out, Sensor{
				ID: id,
				Pos: geometry.V(
					bounds.Min.X+fx*bounds.Width(),
					bounds.Min.Y+fy*bounds.Height(),
				),
				Efficiency: efficiency,
				Background: background,
			})
			id++
		}
	}
	return out
}

// PoissonField places n sensors uniformly at random in bounds — the
// homogeneous Poisson point process (conditioned on count n) used by
// the paper's Scenario C.
func PoissonField(bounds geometry.Rect, n int, stream *rng.Stream, efficiency, background float64) []Sensor {
	if n < 1 {
		return nil
	}
	out := make([]Sensor, n)
	for i := range out {
		out[i] = Sensor{
			ID: i,
			Pos: geometry.V(
				stream.Uniform(bounds.Min.X, bounds.Max.X),
				stream.Uniform(bounds.Min.Y, bounds.Max.Y),
			),
			Efficiency: efficiency,
			Background: background,
		}
	}
	return out
}
