// Pipeline: the localization workflow end to end — the sensor network
// streams readings, the localizer reports how many sources there are
// and where, and the result is rendered as an ASCII map.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"

	"radloc"
	"radloc/internal/rng"
)

func main() {
	sc := radloc.ScenarioA(50, false)
	stream := rng.NewNamed(31, "pipeline/measure")

	fmt.Println("streaming readings into the localizer...")
	loc, err := radloc.NewLocalizer(radloc.LocalizerConfig(sc))
	if err != nil {
		log.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		for _, sen := range sc.Sensors {
			m := sen.Measure(stream, sc.Sources, nil, step)
			loc.Ingest(sen, m.CPM)
		}
	}
	ests := loc.Estimates()
	fmt.Printf("  %d sources localized:\n", len(ests))
	for _, e := range ests {
		fmt.Printf("    %v\n", e)
	}

	fmt.Println("\nparticle map (O = true source, X = estimate, + = sensor):")
	fmt.Print(radloc.RenderASCII(sc, loc.Particles(), ests))
}
