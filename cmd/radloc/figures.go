package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"strings"

	"radloc"
	"radloc/internal/render"
	"radloc/internal/rng"
)

// figureCmd dispatches `radloc figure <id>`.
func figureCmd(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("figure: missing id\n%s", usage)
	}
	id := args[0]
	fs := flag.NewFlagSet("figure "+id, flag.ContinueOnError)
	var cf commonFlags
	cf.register(fs)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	w, closeFn, err := cf.open(stdout)
	if err != nil {
		return err
	}
	defer func() { _ = closeFn() }()

	switch id {
	case "2":
		return figure2(w, cf)
	case "3":
		return figureStrengthSweep(w, cf, false)
	case "4":
		return figure4(w, cf)
	case "5":
		return figureStrengthSweep(w, cf, true)
	case "6":
		return figure6(w, cf)
	case "7b":
		return figure7(w, cf, "B")
	case "7c":
		return figure7(w, cf, "C")
	case "9a":
		return figure9a(w, cf)
	case "9bc":
		return figure9bc(w, cf)
	default:
		return fmt.Errorf("figure: unknown id %q (want 2, 3, 4, 5, 6, 7b, 7c, 9a, 9bc)", id)
	}
}

// figure2 reproduces Fig. 2: without the fusion range the particle
// population oscillates between the two sources as different sensors
// report. The CSV tracks the population centroid's distance to each
// source per iteration for both variants.
func figure2(w io.Writer, cf commonFlags) error {
	fmt.Fprintln(w, "# Fig. 2: particle centroid drift with vs without fusion range")
	fmt.Fprintln(w, "variant,iteration,centroid_x,centroid_y,dist_to_A,dist_to_B")

	for _, variant := range []struct {
		name    string
		disable bool
	}{{"fusion-range", false}, {"no-fusion-range", true}} {
		sc := radloc.ScenarioA(50, false)
		sc.Params.TimeSteps = cf.steps
		cfg := radloc.LocalizerConfig(sc)
		cfg.DisableFusionRange = variant.disable
		cfg.Seed = cf.seed
		loc, err := radloc.NewLocalizer(cfg)
		if err != nil {
			return err
		}
		stream := rng.NewNamed(cf.seed, "fig2/measure")
		srcA, srcB := sc.Sources[0], sc.Sources[1]
		iter := 0
		for step := 0; step < sc.Params.TimeSteps; step++ {
			for _, sen := range sc.Sensors {
				m := sen.Measure(stream, sc.Sources, nil, step)
				loc.Ingest(sen, m.CPM)
				iter++
				if iter%6 == 0 {
					c := loc.Centroid()
					fmt.Fprintf(w, "%s,%d,%.2f,%.2f,%.2f,%.2f\n",
						variant.name, iter, c.Pos.X, c.Pos.Y,
						c.Pos.Dist(srcA.Pos), c.Pos.Dist(srcB.Pos))
				}
			}
		}
	}
	return nil
}

// figureStrengthSweep reproduces Fig. 3 (two sources) or Fig. 5 (three
// sources): localization error per source and FP/FN counts per time
// step for source strengths 4, 10, 50, 100 µCi.
func figureStrengthSweep(w io.Writer, cf commonFlags, three bool) error {
	name := "Fig. 3 (two sources)"
	if three {
		name = "Fig. 5 (three sources)"
	}
	fmt.Fprintf(w, "# %s: error and FP/FN vs time step, background 5 CPM\n", name)
	fmt.Fprintln(w, "strength_uci,step,"+errHeader(map[bool]int{false: 2, true: 3}[three])+",false_pos,false_neg")

	for _, strength := range []float64{4, 10, 50, 100} {
		sc := radloc.ScenarioA(strength, false)
		if three {
			sc = radloc.ScenarioAThree(strength)
		}
		sc.Params.TimeSteps = cf.steps
		res, err := radloc.Run(sc, radloc.RunOptions{Seed: cf.seed, Reps: cf.reps, TrialWorkers: trialWorkers()})
		if err != nil {
			return err
		}
		writeStepSeries(w, fmt.Sprintf("%g", strength), res)
	}
	return nil
}

// figure4 reproduces Fig. 4: particle cloud snapshots over time,
// rendered as ASCII density maps plus estimates.
func figure4(w io.Writer, cf commonFlags) error {
	sc := radloc.ScenarioA(10, false)
	sc.Params.TimeSteps = cf.steps
	if sc.Params.TimeSteps < 8 {
		sc.Params.TimeSteps = 8
	}
	res, err := radloc.Run(sc, radloc.RunOptions{
		Seed:          cf.seed,
		Reps:          1,
		SnapshotSteps: []int{0, 2, 4, 6},
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Fig. 4: particle progression (time steps 1, 3, 5, 7 of the paper = indices 0, 2, 4, 6)")
	for _, step := range []int{0, 2, 4, 6} {
		parts := res.Trials[0].Snapshots[step]
		fmt.Fprintf(w, "\n## after time step %d (%d particles)\n", step+1, len(parts))
		fmt.Fprint(w, renderParticles(sc, parts))
	}
	return nil
}

// figure6 reproduces Fig. 6: two 10 µCi sources under background
// radiation 0, 5, 10, 50 CPM.
func figure6(w io.Writer, cf commonFlags) error {
	fmt.Fprintln(w, "# Fig. 6: error and FP/FN vs time step under varying background, two 10 µCi sources")
	fmt.Fprintln(w, "background_cpm,step,"+errHeader(2)+",false_pos,false_neg")
	for _, bg := range []float64{0, 5, 10, 50} {
		sc := radloc.ScenarioA(10, false).WithBackground(bg)
		sc.Params.TimeSteps = cf.steps
		res, err := radloc.Run(sc, radloc.RunOptions{Seed: cf.seed, Reps: cf.reps, TrialWorkers: trialWorkers()})
		if err != nil {
			return err
		}
		writeStepSeries(w, fmt.Sprintf("%g", bg), res)
	}
	return nil
}

// figure7 reproduces Fig. 7: Scenario B or C with and without
// obstacles — per-source errors and FP/FN counts per step.
func figure7(w io.Writer, cf commonFlags, which string) error {
	fmt.Fprintf(w, "# Fig. 7: Scenario %s with and without obstacles\n", which)
	fmt.Fprintln(w, "obstacles,step,"+errHeader(9)+",false_pos,false_neg")
	for _, withObs := range []bool{false, true} {
		sc := radloc.ScenarioB(withObs)
		if which == "C" {
			sc = radloc.ScenarioC(withObs, cf.seed)
		}
		sc.Params.TimeSteps = cf.steps
		res, err := radloc.Run(sc, radloc.RunOptions{Seed: cf.seed, Reps: cf.reps, TrialWorkers: trialWorkers()})
		if err != nil {
			return err
		}
		writeStepSeries(w, fmt.Sprintf("%v", withObs), res)
	}
	return nil
}

// figure9a reproduces Fig. 9(a): per-step normalized localization error
// of Scenario A with the U-obstacle (error without obstacle ÷ error
// with obstacle; > 1 means the obstacle helps).
func figure9a(w io.Writer, cf commonFlags) error {
	without, with, err := runPair(radloc.ScenarioA(10, false), radloc.ScenarioA(10, true), cf)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "# Fig. 9(a): normalized localization error (no-obstacle / obstacle), two 10 µCi sources")
	fmt.Fprintln(w, "step,source1_norm,source2_norm")
	for t := 0; t < len(without.MeanErr); t++ {
		fmt.Fprintf(w, "%d,%s,%s\n", t,
			csvFloat(without.ErrBySource[0][t]/with.ErrBySource[0][t]),
			csvFloat(without.ErrBySource[1][t]/with.ErrBySource[1][t]))
	}
	return nil
}

// figure9bc reproduces Fig. 9(b,c): per-source normalized error for
// Scenarios B and C averaged over time steps 5–29.
func figure9bc(w io.Writer, cf commonFlags) error {
	fmt.Fprintln(w, "# Fig. 9(b,c): per-source normalized error (no-obstacle / obstacle), mean of steps 5..end")
	fmt.Fprintln(w, "scenario,source,normalized_error")
	for _, which := range []string{"B", "C"} {
		var base, obs radloc.Scenario
		if which == "B" {
			base, obs = radloc.ScenarioB(false), radloc.ScenarioB(true)
		} else {
			base, obs = radloc.ScenarioC(false, cf.seed), radloc.ScenarioC(true, cf.seed)
		}
		without, with, err := runPair(base, obs, cf)
		if err != nil {
			return err
		}
		for s := range without.ErrBySource {
			num := meanWindow(without.ErrBySource[s], 5)
			den := meanWindow(with.ErrBySource[s], 5)
			fmt.Fprintf(w, "%s,S%d,%s\n", which, s+1, csvFloat(num/den))
		}
	}
	return nil
}

// runPair runs the same layout without and with obstacles.
func runPair(base, obs radloc.Scenario, cf commonFlags) (radloc.Result, radloc.Result, error) {
	base.Params.TimeSteps = cf.steps
	obs.Params.TimeSteps = cf.steps
	opts := radloc.RunOptions{Seed: cf.seed, Reps: cf.reps, TrialWorkers: trialWorkers()}
	without, err := radloc.Run(base, opts)
	if err != nil {
		return radloc.Result{}, radloc.Result{}, err
	}
	with, err := radloc.Run(obs, opts)
	if err != nil {
		return radloc.Result{}, radloc.Result{}, err
	}
	return without, with, nil
}

// writeStepSeries emits one row per step: per-source mean errors then
// FP and FN means.
func writeStepSeries(w io.Writer, label string, res radloc.Result) {
	steps := len(res.MeanErr)
	for t := 0; t < steps; t++ {
		cols := make([]string, 0, len(res.ErrBySource)+3)
		cols = append(cols, label, fmt.Sprintf("%d", t))
		for s := range res.ErrBySource {
			cols = append(cols, csvFloat(res.ErrBySource[s][t]))
		}
		cols = append(cols, csvFloat(res.FalsePos[t]), csvFloat(res.FalseNeg[t]))
		fmt.Fprintln(w, strings.Join(cols, ","))
	}
}

func errHeader(n int) string {
	cols := make([]string, n)
	for i := range cols {
		cols[i] = fmt.Sprintf("err_source%d", i+1)
	}
	return strings.Join(cols, ",")
}

func csvFloat(v float64) string {
	if math.IsNaN(v) {
		return "NA"
	}
	return fmt.Sprintf("%.3f", v)
}

// meanWindow averages the non-NaN entries of xs from index from on;
// it is NaN when there are none.
func meanWindow(xs []float64, from int) float64 {
	var sum float64
	n := 0
	for i := from; i < len(xs); i++ {
		if !math.IsNaN(xs[i]) {
			sum += xs[i]
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// renderParticles draws an ASCII density map of the particle cloud with
// source (O), sensor (+) and estimate (X) markers.
func renderParticles(sc radloc.Scenario, parts []radloc.Particle) string {
	return render.ASCII(sc, parts, nil, render.ASCIIOptions{})
}
