package mobile

import (
	"testing"

	"radloc/internal/core"
	"radloc/internal/geometry"
	"radloc/internal/radiation"
	"radloc/internal/rng"
	"radloc/internal/sensor"
)

func wallObstacle() radiation.Obstacle {
	// A vertical wall splitting the area, with a gap at the top.
	return radiation.Obstacle{
		Shape: geometry.MustPolygon([]geometry.Vec{geometry.V(48, 0), geometry.V(52, 0), geometry.V(52, 80), geometry.V(48, 80)}),
		Mu:    0.1,
		Name:  "wall",
	}
}

func avoider() AvoidingPlanner {
	return AvoidingPlanner{
		Inner:     Planner{Speed: 4, Bounds: bounds100()},
		Obstacles: []radiation.Obstacle{wallObstacle()},
		CellSize:  4,
	}
}

func TestAvoidingPlannerStraightWhenClear(t *testing.T) {
	p := avoider()
	parts := particlesAt(geometry.V(30, 80), 100, 1.0/100)
	cur := geometry.V(20, 20)
	next := p.Next(cur, parts)
	want := p.Inner.Next(cur, parts)
	if !next.Eq(want) {
		t.Errorf("clear path altered: %v vs inner %v", next, want)
	}
}

func TestAvoidingPlannerRoutesAroundWall(t *testing.T) {
	p := avoider()
	parts := particlesAt(geometry.V(80, 20), 200, 1.0/200)
	cur := geometry.V(20, 20)

	visited := []geometry.Vec{cur}
	for i := 0; i < 80; i++ {
		next := p.Next(cur, parts)
		if p.inside(next) {
			t.Fatalf("step %d entered an obstacle: %v", i, next)
		}
		if d := next.Dist(cur); d > p.Inner.Speed+1e-6 {
			t.Fatalf("step %d moved %v > speed", i, d)
		}
		cur = next
		visited = append(visited, cur)
		if cur.Dist(geometry.V(80, 20)) < 10 {
			break
		}
	}
	if cur.Dist(geometry.V(80, 20)) > 12 {
		t.Fatalf("never reached the far side; stopped at %v", cur)
	}
	// The detour must have gone over the wall's gap (y > 80 region) at
	// some point, since the wall blocks y ∈ [0,80].
	overGap := false
	for _, v := range visited {
		if v.X > 44 && v.X < 56 && v.Y > 78 {
			overGap = true
		}
	}
	if !overGap {
		t.Error("path crossed the wall without using the gap")
	}
}

func TestAvoidingPlannerHoldsWhenEnclosed(t *testing.T) {
	// Target completely walled in: the planner must hold position, not
	// clip through.
	box := radiation.Obstacle{
		Shape: geometry.MustPolygon([]geometry.Vec{
			geometry.V(60, 60), geometry.V(90, 60), geometry.V(90, 90), geometry.V(60, 90),
		}),
	}
	p := AvoidingPlanner{
		Inner:     Planner{Speed: 4, Bounds: bounds100()},
		Obstacles: []radiation.Obstacle{box},
		CellSize:  4,
	}
	parts := particlesAt(geometry.V(75, 75), 100, 1.0/100) // inside the box
	cur := geometry.V(20, 20)
	for i := 0; i < 40; i++ {
		next := p.Next(cur, parts)
		if p.inside(next) {
			t.Fatalf("entered the sealed box at step %d: %v", i, next)
		}
		cur = next
	}
}

func TestAvoidingPlannerValidate(t *testing.T) {
	bad := AvoidingPlanner{Inner: Planner{}}
	if err := bad.Validate(); err == nil {
		t.Error("invalid inner planner accepted")
	}
	if err := avoider().Validate(); err != nil {
		t.Errorf("valid avoider rejected: %v", err)
	}
}

func TestAvoidingPlannerNoParticles(t *testing.T) {
	p := avoider()
	cur := geometry.V(10, 10)
	if next := p.Next(cur, nil); !next.Eq(cur) {
		t.Errorf("moved without particles: %v", next)
	}
}

func TestAvoidingPlannerEndToEndLocalization(t *testing.T) {
	// Full loop: source behind the wall; surveyor routes around it and
	// still pins the source. Uses the same fixed-grid + surveyor setup
	// as the basic planner test but with the wall in the way (also
	// shielding measurements).
	truth := []radiation.Source{{Pos: geometry.V(80, 30), Strength: 100}}
	obstacles := []radiation.Obstacle{wallObstacle()}
	loc, err := core.NewLocalizer(core.Config{
		Bounds: bounds100(), Seed: 12, Workers: 2, FusionRange: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	fixed := sensor.Grid(bounds100(), 3, 3, sensor.DefaultEfficiency, 5)
	// A fresh stream per run: every run (-count, -cpu) sees one draw.
	stream := rng.NewNamed(12, "mobile/avoid-e2e")
	p := avoider()
	surveyor := geometry.V(10, 10)
	moved := 0
	for step := 0; step < 60; step++ {
		for _, sen := range fixed {
			loc.Ingest(sen, sen.Measure(stream, truth, obstacles, step).CPM)
		}
		sen := sensorAt(100, surveyor)
		loc.Ingest(sen, sen.Measure(stream, truth, obstacles, step).CPM)
		next := p.Next(surveyor, loc.Particles())
		if !next.Eq(surveyor) {
			moved++
		}
		surveyor = next
	}
	if moved < 20 {
		t.Errorf("surveyor barely moved (%d steps)", moved)
	}
	best := 1e18
	for _, e := range loc.Estimates() {
		if d := e.Pos.Dist(truth[0].Pos); d < best {
			best = d
		}
	}
	if best > 14 {
		t.Errorf("error %v after a 60-step survey", best)
	}
}

// sensorAt builds a standard test sensor.
func sensorAt(id int, pos geometry.Vec) sensor.Sensor {
	return sensor.Sensor{ID: id, Pos: pos, Efficiency: sensor.DefaultEfficiency, Background: 5}
}
