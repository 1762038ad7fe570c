package radiation

import (
	"math"
	"testing"
	"testing/quick"

	"radloc/internal/geometry"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFreeSpaceIntensity(t *testing.T) {
	src := Source{Pos: geometry.V(0, 0), Strength: 100}
	tests := []struct {
		name string
		x    geometry.Vec
		want float64
	}{
		{"at-source", geometry.V(0, 0), 100},
		{"unit-away", geometry.V(1, 0), 50},
		{"3-4-5", geometry.V(3, 4), 100.0 / 26},
		{"far", geometry.V(100, 0), 100.0 / 10001},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := FreeSpaceIntensity(tt.x, src); !almostEq(got, tt.want, 1e-12) {
				t.Errorf("got %v, want %v", got, tt.want)
			}
		})
	}
}

func wall(x0, x1 float64) Obstacle {
	return Obstacle{
		Shape: geometry.MustPolygon([]geometry.Vec{geometry.V(x0, -100), geometry.V(x1, -100), geometry.V(x1, 100), geometry.V(x0, 100)}),
		Mu:    PaperObstacle.MustMu(),
		Name:  "wall",
	}
}

func TestIntensityThroughWall(t *testing.T) {
	src := Source{Pos: geometry.V(0, 0), Strength: 100}
	x := geometry.V(30, 0)
	free := FreeSpaceIntensity(x, src)

	// A 10-unit wall of the paper's material (µ=0.0693) attenuates by
	// e^(−0.693) ≈ one half.
	half := math.Exp(-PaperObstacle.MustMu() * 10)
	got := Intensity(x, src, []Obstacle{wall(10, 20)})
	if !almostEq(got, free*half, 1e-6*free) {
		t.Errorf("one wall: got %v, want %v", got, free*half)
	}
	if !almostEq(half, 0.5, 1e-3) {
		t.Errorf("halving factor = %v, want ≈0.5", half)
	}

	// Two walls of 10 units quarter it.
	got = Intensity(x, src, []Obstacle{wall(5, 15), wall(18, 28)})
	if !almostEq(got, free*half*half, 1e-6*free) {
		t.Errorf("two walls: got %v, want %v", got, free*half*half)
	}

	// An obstacle not on the ray changes nothing.
	off := Obstacle{
		Shape: geometry.MustPolygon([]geometry.Vec{geometry.V(10, 10), geometry.V(20, 10), geometry.V(20, 20), geometry.V(10, 20)}),
		Mu:    PaperObstacle.MustMu(),
	}
	got = Intensity(x, src, []Obstacle{off})
	if !almostEq(got, free, 1e-12) {
		t.Errorf("off-ray obstacle altered intensity: %v vs %v", got, free)
	}

	// µ = 0 obstacles are transparent.
	clear := wall(10, 20)
	clear.Mu = 0
	got = Intensity(x, src, []Obstacle{clear})
	if !almostEq(got, free, 1e-12) {
		t.Errorf("transparent obstacle altered intensity")
	}
}

func TestIntensityNoObstacles(t *testing.T) {
	src := Source{Pos: geometry.V(5, 5), Strength: 10}
	x := geometry.V(8, 9)
	if got, want := Intensity(x, src, nil), FreeSpaceIntensity(x, src); !almostEq(got, want, 1e-15) {
		t.Errorf("nil obstacles: %v, want %v", got, want)
	}
}

func TestExpectedCPM(t *testing.T) {
	src := Source{Pos: geometry.V(0, 0), Strength: 10}
	pos := geometry.V(10, 0)
	// By hand: 2.22e6 * 1e-4 * 10/101 + 5.
	want := CPMPerMicroCurie*1e-4*10.0/101 + 5
	got := ExpectedCPM(pos, 1e-4, 5, []Source{src}, nil)
	if !almostEq(got, want, 1e-9) {
		t.Errorf("ExpectedCPM = %v, want %v", got, want)
	}

	// Superposition: two sources add.
	src2 := Source{Pos: geometry.V(20, 0), Strength: 10}
	got = ExpectedCPM(pos, 1e-4, 5, []Source{src, src2}, nil)
	want = CPMPerMicroCurie*1e-4*(10.0/101+10.0/101) + 5
	if !almostEq(got, want, 1e-9) {
		t.Errorf("two-source ExpectedCPM = %v, want %v", got, want)
	}

	// No sources: background only.
	if got := ExpectedCPM(pos, 1e-4, 7, nil, nil); got != 7 {
		t.Errorf("background-only = %v, want 7", got)
	}
}

// Property: shielded intensity never exceeds free-space intensity and
// is always non-negative.
func TestIntensityBoundedProperty(t *testing.T) {
	obs := []Obstacle{wall(10, 20), {
		Shape: geometry.MustPolygon([]geometry.Vec{geometry.V(-50, 30), geometry.V(50, 30), geometry.V(50, 40), geometry.V(-50, 40)}),
		Mu:    Concrete.MustMu(),
	}}
	f := func(sx, sy, px, py, str uint16) bool {
		src := Source{
			Pos:      geometry.V(float64(sx%200)-100, float64(sy%200)-100),
			Strength: 1 + float64(str%1000),
		}
		pos := geometry.V(float64(px%200)-100, float64(py%200)-100)
		shielded := Intensity(pos, src, obs)
		free := FreeSpaceIntensity(pos, src)
		return shielded >= 0 && shielded <= free+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaterials(t *testing.T) {
	// The paper cites 1 cm lead ≈ 6 cm concrete at 1 MeV.
	ratio := Lead.MustMu() / Concrete.MustMu()
	if ratio < 4.5 || ratio > 6.5 {
		t.Errorf("lead/concrete µ ratio = %v, want ≈5–6", ratio)
	}
	if _, err := Material("unobtainium").Mu(); err == nil {
		t.Error("unknown material should error")
	}
	// Halving thickness ln 2 / µ.
	mu, err := PaperObstacle.Mu()
	if err != nil || !almostEq(math.Ln2/mu, 10, 0.01) {
		t.Errorf("paper obstacle halving thickness = %v (%v), want 10", math.Ln2/mu, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustMu on unknown material should panic")
		}
	}()
	Material("nope").MustMu()
}
