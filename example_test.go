package radloc_test

import (
	"fmt"
	"math"

	"radloc"
)

// ExampleRun reproduces the paper's basic workflow: simulate Scenario A
// and read off whether both sources were found.
func ExampleRun() {
	sc := radloc.ScenarioA(50, false)
	sc.Params.TimeSteps = 8
	res, err := radloc.Run(sc, radloc.RunOptions{Seed: 42, Reps: 2, TrialWorkers: 2})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	last := len(res.MeanErr) - 1
	fmt.Printf("sources found: %v\n", res.FalseNeg[last] == 0)
	fmt.Printf("error under 10 units: %v\n", res.MeanErr[last] < 10)
	// Output:
	// sources found: true
	// error under 10 units: true
}

// ExampleLocalizer_Ingest drives the filter directly with noise-free
// expected readings — the streaming API a real deployment uses.
func ExampleLocalizer_Ingest() {
	sc := radloc.ScenarioA(50, false)
	loc, err := radloc.NewLocalizer(radloc.LocalizerConfig(sc))
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for step := 0; step < 5; step++ {
		for _, sen := range sc.Sensors {
			cpm := int(math.Round(radloc.ExpectedCPM(
				sen.Pos, sen.Efficiency, sen.Background, sc.Sources, nil)))
			loc.Ingest(sen, cpm)
		}
	}
	m := radloc.Match(loc.Estimates(), sc.Sources, 40)
	fmt.Printf("missed sources: %d\n", m.FalseNeg)
	// Output:
	// missed sources: 0
}

// ExampleMatch scores an estimate set against ground truth with the
// paper's 40-unit association rule.
func ExampleMatch() {
	estimates := []radloc.Estimate{
		{Pos: radloc.V(48, 70), Strength: 52, Mass: 0.5},
		{Pos: radloc.V(10, 10), Strength: 5, Mass: 0.05}, // spurious
	}
	sources := []radloc.Source{
		{Pos: radloc.V(47, 71), Strength: 50},
		{Pos: radloc.V(81, 42), Strength: 50},
	}
	m := radloc.Match(estimates, sources, 40)
	fmt.Printf("false positives: %d\n", m.FalsePos)
	fmt.Printf("false negatives: %d\n", m.FalseNeg)
	fmt.Printf("source 1 error: %.2f\n", m.Err[0])
	// Output:
	// false positives: 1
	// false negatives: 1
	// source 1 error: 1.41
}
