package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"

	"radloc"
)

// runCmd executes a generic scenario run (`radloc run`).
func runCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	var (
		name      = fs.String("scenario", "A", "scenario: A, A3, B or C")
		strength  = fs.Float64("strength", 10, "source strength for scenario A/A3 (µCi)")
		obstacles = fs.Bool("obstacles", false, "include obstacles")
		bg        = fs.Float64("background", -1, "override background radiation (CPM); -1 keeps the scenario default")
		cfgFile   = fs.String("config", "", "load the scenario from a JSON file instead of -scenario")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, closeFn, err := cf.open(stdout)
	if err != nil {
		return err
	}
	defer func() { _ = closeFn() }()

	var sc radloc.Scenario
	if *cfgFile != "" {
		sc, err = loadScenarioFile(*cfgFile)
		if err != nil {
			return err
		}
		if *bg >= 0 {
			sc = sc.WithBackground(*bg)
		}
		if cf.steps > 0 {
			sc.Params.TimeSteps = cf.steps
		}
		return executeRun(w, sc, cf)
	}
	switch *name {
	case "A", "a":
		sc = radloc.ScenarioA(*strength, *obstacles)
	case "A3", "a3":
		sc = radloc.ScenarioAThree(*strength)
	case "B", "b":
		sc = radloc.ScenarioB(*obstacles)
	case "C", "c":
		sc = radloc.ScenarioC(*obstacles, cf.seed)
	default:
		return fmt.Errorf("run: unknown scenario %q", *name)
	}
	if *bg >= 0 {
		sc = sc.WithBackground(*bg)
	}
	sc.Params.TimeSteps = cf.steps
	return executeRun(w, sc, cf)
}

// executeRun simulates sc and writes the step series plus the final
// estimates.
func executeRun(w io.Writer, sc radloc.Scenario, cf commonFlags) error {
	res, err := radloc.Run(sc, radloc.RunOptions{Seed: cf.seed, Reps: cf.reps, TrialWorkers: trialWorkers()})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# scenario %s, %d reps, seed %d\n", sc.Name, cf.reps, cf.seed)
	fmt.Fprintln(w, "label,step,"+errHeader(len(sc.Sources))+",false_pos,false_neg")
	writeStepSeries(w, sc.Name, res)

	fmt.Fprintf(w, "# final estimates of trial 0:\n")
	for _, e := range res.Trials[0].FinalEstimates {
		fmt.Fprintf(w, "#   %v\n", e)
	}
	return nil
}

// trialWorkers picks a trial-level parallelism. Above 1, each trial's
// filter runs its mean-shift search on one worker (its ingest path
// always runs on one goroutine).
func trialWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		return 1
	}
	return n
}
