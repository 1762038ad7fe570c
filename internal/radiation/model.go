// Package radiation implements the gamma-radiation propagation model of
// Chin et al. (ICDCS 2011), Section III:
//
//   - Eq. (1) free-space intensity  I_FS(x, A) = A_str / (1 + |x − A_pos|²)
//   - Eq. (2) shielding             I_S(l, A)  = A_str · e^(−µl)
//   - Eq. (3) combined model through a set of obstacles
//   - Eq. (4) expected sensor reading in counts per minute (CPM)
//
// Source strengths are in micro-Curies (µCi); distances in abstract
// length units (cm in the paper); sensor readings in CPM.
package radiation

import (
	"fmt"

	"radloc/internal/geometry"
)

// CPMPerMicroCurie is the conversion factor from µCi to CPM used in
// Eq. (4): 1 µCi = 2.22×10⁶ disintegrations per minute.
const CPMPerMicroCurie = 2.22e6

// Source is a static gamma point source A = ⟨A^x, A^y, A^str⟩.
type Source struct {
	Pos      geometry.Vec
	Strength float64 // µCi, positive
}

// String implements fmt.Stringer.
func (s Source) String() string {
	return fmt.Sprintf("source %.4g µCi at %v", s.Strength, s.Pos)
}

// Obstacle is a homogeneous shielding body: a polygon footprint with a
// linear attenuation coefficient µ (per length unit).
type Obstacle struct {
	Shape geometry.Polygon
	Mu    float64 // attenuation coefficient, ≥ 0
	Name  string  // optional label for reports
}

// FreeSpaceIntensity evaluates Eq. (1): the unshielded intensity of src
// observed at x, in µCi-equivalent units (multiply by CPMPerMicroCurie ×
// efficiency to get CPM).
func FreeSpaceIntensity(x geometry.Vec, src Source) float64 {
	return src.Strength / (1 + x.Dist2(src.Pos))
}

// Intensity evaluates Eq. (3): the intensity of src at x attenuated by
// every obstacle the ray x→src crosses.
func Intensity(x geometry.Vec, src Source, obstacles []Obstacle) float64 {
	base := FreeSpaceIntensity(x, src)
	if len(obstacles) == 0 || base == 0 {
		return base
	}
	ray := geometry.Seg(x, src.Pos)
	var exponent float64
	for i := range obstacles {
		ob := &obstacles[i]
		if ob.Mu <= 0 {
			continue
		}
		if l := ob.Shape.ChordLength(ray); l > 0 {
			exponent += ob.Mu * l
		}
	}
	if exponent == 0 {
		return base
	}
	return base * exp(-exponent)
}

// ExpectedCPM evaluates Eq. (4): the expected reading of a sensor at
// pos with counting efficiency eff and background rate background
// (CPM), given all sources and obstacles:
//
//	I_i = 2.22×10⁶ · E_i · Σ_j I(S_i, A_j) + B_i
func ExpectedCPM(pos geometry.Vec, eff, background float64, sources []Source, obstacles []Obstacle) float64 {
	var sum float64
	for _, src := range sources {
		sum += Intensity(pos, src, obstacles)
	}
	return CPMPerMicroCurie*eff*sum + background
}
