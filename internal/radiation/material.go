package radiation

import (
	"fmt"
	"math"
)

// exp is a local alias so the hot path stays readable.
func exp(x float64) float64 { return math.Exp(x) }

// Material identifies a shielding material with a published linear
// attenuation coefficient for 1 MeV gamma rays (Hubbell, NSRDS-NBS 29).
type Material string

// Supported materials. Coefficients are per cm at 1 MeV photon energy.
const (
	Lead     Material = "lead"
	Steel    Material = "steel"
	Concrete Material = "concrete"
	Water    Material = "water"
	Brick    Material = "brick"
	Wood     Material = "wood"
	Air      Material = "air"
	// PaperObstacle is the synthetic material used in the paper's
	// Scenario A: µ = 0.0693, i.e. intensity halves every 10 length
	// units ("selected such that the obstacle does not completely block
	// the radiation").
	PaperObstacle Material = "paper-obstacle"
)

// attenuation holds linear attenuation coefficients µ (cm⁻¹) at 1 MeV.
// Values derived from NSRDS-NBS 29 mass attenuation coefficients times
// nominal densities.
var attenuation = map[Material]float64{
	Lead:          0.797,   // µ/ρ ≈ 0.0703 cm²/g × 11.34 g/cm³
	Steel:         0.468,   // 0.0595 × 7.86
	Concrete:      0.149,   // 0.0637 × 2.35 — ≈ lead/6, matching the paper's remark
	Water:         0.0707,  // 0.0707 × 1.00
	Brick:         0.114,   // 0.0635 × 1.8
	Wood:          0.0386,  // 0.0643 × 0.6
	Air:           8.62e-5, // 0.0636 × 1.205e-3
	PaperObstacle: 0.0693,  // ln 2 / 10
}

// Mu returns the linear attenuation coefficient of m.
func (m Material) Mu() (float64, error) {
	mu, ok := attenuation[m]
	if !ok {
		return 0, fmt.Errorf("radiation: unknown material %q", m)
	}
	return mu, nil
}

// MustMu is Mu for statically-known materials; it panics on unknown m.
func (m Material) MustMu() float64 {
	mu, err := m.Mu()
	if err != nil {
		panic(err)
	}
	return mu
}
