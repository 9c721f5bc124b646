// Command cellrepro regenerates every table and figure of the paper end to
// end: it simulates the vanilla measurement fleet, analyzes the dataset,
// fits and anneals the TIMP recovery model, simulates the patched fleet,
// and prints a paper-vs-measured report (markdown) for each experiment.
// FILE is the scenario document of the vanilla fleet (fleet.ParseScenario);
// the patched fleet is the same scenario with the enhancements on.
//
// Usage:
//
//	cellrepro scenarios/report.json > EXPERIMENTS.md
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/android"
	"repro/internal/core"
	"repro/internal/fleet"
)

// errUsage marks a command line the flag package refused. It has printed
// the reason and the usage by then; main exits 2, as flag.ExitOnError does.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		log.Fatalf("cellrepro: %v", err)
	}
}

// run simulates, analyzes and writes the markdown report to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cellrepro", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintln(fs.Output(), "usage: cellrepro FILE") }
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if fs.NArg() != 1 {
		// Refused as the flag package refuses a flag: reason, then usage.
		err := fmt.Errorf("want one scenario document, got %d arguments %q", fs.NArg(), fs.Args())
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	scenario, backend, err := fleet.LoadScenario(fs.Arg(0))
	if err != nil {
		return err
	}
	if backend != nil {
		return fmt.Errorf("%s: a backend is run by cellcheck, not cellrepro", fs.Arg(0))
	}
	if scenario.Policy != fleet.PolicyVanilla || scenario.Trigger != android.DefaultFixedTrigger || scenario.DualConnectivity {
		return fmt.Errorf("%s: the report measures the vanilla fleet and patches it itself: leave out policy, trigger and dual_connectivity", fs.Arg(0))
	}

	start := time.Now()
	m, opt, enh, err := core.FullPipeline(scenario)
	if err != nil {
		return err
	}

	report := core.BuildReport(m, opt, enh)
	_, err = io.WriteString(out, report.Markdown(time.Since(start)))
	return err
}
