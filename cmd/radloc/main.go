// Command radloc regenerates every table and figure of the paper's
// evaluation (Section VI) and exposes generic scenario runs.
//
// Usage:
//
//	radloc figure <2|3|4|5|6|7b|7c|9a|9bc> [flags]   regenerate a figure's data (CSV)
//	radloc table 1 [flags]                            Table I runtime sweep
//	radloc scenario <A|B|C> [flags]                   dump a deployment layout
//	radloc run [flags]                                generic scenario run
//
// Common flags: -reps N, -seed S, -steps T, -out FILE (default stdout).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "radloc:", err)
		os.Exit(1)
	}
}

// commonFlags are shared by all subcommands.
type commonFlags struct {
	reps  int
	seed  uint64
	steps int
	out   string
}

func (c *commonFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&c.reps, "reps", 10, "repeated trials to average")
	fs.Uint64Var(&c.seed, "seed", 1, "root random seed")
	fs.IntVar(&c.steps, "steps", 30, "time steps (each sensor reports once per step)")
	fs.StringVar(&c.out, "out", "", "output file (default stdout)")
}

// open returns the output writer and a closer.
func (c *commonFlags) open(fallback io.Writer) (io.Writer, func() error, error) {
	if c.out == "" {
		return fallback, func() error { return nil }, nil
	}
	f, err := os.Create(c.out)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return usageError()
	}
	switch args[0] {
	case "figure":
		return figureCmd(args[1:], stdout)
	case "table":
		return tableCmd(args[1:], stdout)
	case "scenario":
		return scenarioCmd(args[1:], stdout)
	case "run":
		return runCmd(args[1:], stdout)
	case "config":
		return configCmd(args[1:], stdout)
	case "plot":
		return plotCmd(args[1:], stdout)
	case "ablate":
		return ablateCmd(args[1:], stdout)
	case "diagnose":
		return diagnoseCmd(args[1:], stdout)
	case "record":
		return recordCmd(args[1:], stdout)
	case "agent":
		return agentCmd(args[1:], stdout)
	case "ctl":
		return ctlCmd(args[1:], stdout)
	case "bench":
		return benchCmd(args[1:], stdout)
	case "help", "-h", "--help":
		printUsage(stdout)
		return nil
	default:
		return fmt.Errorf("unknown command %q\n%s", args[0], usage)
	}
}

const usage = `usage:
  radloc figure <2|3|4|5|6|7b|7c|9a|9bc> [flags]   regenerate a paper figure (CSV)
  radloc table 1 [flags]                            Table I runtime sweep
  radloc scenario <A|B|C> [flags]                   dump a layout (-svg for SVG)
  radloc run [flags]                                generic run (-config FILE for custom)
  radloc config emit <A|A3|B|C> [flags]             emit a scenario as editable JSON
  radloc config check <file>                        validate a JSON scenario
  radloc plot <csv> [-x col -y col1,col2 -format gnuplot|markdown]
  radloc ablate <fusion-range|estimator|scale-k|faults|delivery|transport|storage> [flags]
  radloc diagnose [-scenario A -obstacles] [flags]  posterior-predictive check
  radloc record [-scenario A | -config FILE] [flags]  NDJSON stream for radlocd
  radloc agent -url URL [-in FILE] [-spool DIR] [flags]  deliver NDJSON to radlocd with retries
  radloc ctl <status|routes|promote|drain|demote|migrate> [flags]  operate a radlocd cluster (failover, live migration)
  radloc bench -core | -accuracy [-against FILE] [-check FILE] [-out FILE]  gated filter-core throughput / accuracy reports
flags: -reps N  -seed S  -steps T  -out FILE`

func usageError() error { return fmt.Errorf("%s", usage) }

func printUsage(w io.Writer) { fmt.Fprintln(w, usage) }
