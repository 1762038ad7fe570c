// Mobile search: a surveyor with a vehicle-mounted detector sweeps an
// area covered only by a sparse 3×3 fixed grid. The planner drives
// toward the particle filter's probability mass and then orbits it for
// parallax — the controlled-search strategy of the paper's reference
// [18] — pinning the source far better than the fixed grid alone. A
// fence with a gap at its top stands between the surveyor's start and
// the source; it stops the vehicle but not the radiation, and the
// planner routes the surveyor around it with A* (references [19],
// [20]).
//
//	go run ./examples/mobilesearch
package main

import (
	"fmt"
	"log"
	"math"

	"radloc"
	"radloc/internal/rng"
)

func main() {
	bounds := radloc.NewRect(radloc.V(0, 0), radloc.V(100, 100))
	truth := []radloc.Source{{Pos: radloc.V(68, 37), Strength: 50}}
	fixed := radloc.GridSensors(bounds, 3, 3, 1e-4, 5)

	cfg := radloc.Config{Bounds: bounds, Seed: 9, FusionRange: 40}
	loc, err := radloc.NewLocalizer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fence, err := radloc.NewPolygon([]radloc.Vec{radloc.V(40, 0), radloc.V(44, 0), radloc.V(44, 80), radloc.V(40, 80)})
	if err != nil {
		log.Fatal(err)
	}
	planner := radloc.MobileAvoidingPlanner{
		Inner:     radloc.MobilePlanner{Speed: 4, Bounds: bounds},
		Obstacles: []radloc.Obstacle{{Shape: fence, Name: "fence"}},
	}
	if err := planner.Validate(); err != nil {
		log.Fatal(err)
	}

	stream := rng.NewNamed(9, "mobilesearch/measure")
	pos := radloc.V(5, 95) // surveyor starts in the far corner

	fmt.Println("step  surveyor position   best estimate error")
	var cloud []radloc.Particle // reused across steps — see AppendParticles
	for step := 0; step < 25; step++ {
		for _, sen := range fixed {
			m := sen.Measure(stream, truth, nil, step)
			loc.Ingest(sen, m.CPM)
		}
		surveyor := radloc.Sensor{ID: 100, Pos: pos, Efficiency: 1e-4, Background: 5}
		m := surveyor.Measure(stream, truth, nil, step)
		loc.Ingest(surveyor, m.CPM)
		cloud = loc.AppendParticles(cloud[:0])
		pos = planner.Next(pos, cloud)

		best := math.Inf(1)
		for _, e := range loc.Estimates() {
			best = math.Min(best, e.Pos.Dist(truth[0].Pos))
		}
		fmt.Printf("%4d  (%5.1f, %5.1f)      %6.2f\n", step, pos.X, pos.Y, best)
	}
	fmt.Printf("\ntrue source: %v\n", truth[0])
}
