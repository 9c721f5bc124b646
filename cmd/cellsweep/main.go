// Command cellsweep runs the ablations DESIGN.md calls out — RAT policy
// variants, dual connectivity, recovery triggers, and false-positive
// filtering — and prints one comparison table. Each FILE is a scenario
// document (fleet.ParseScenario) and gives one row, labelled by its file
// name without ".json", in argument order. scenarios/sweep/ holds the
// vanilla fleet and six variants that each change only what their name
// says.
//
// Usage:
//
//	cellsweep scenarios/sweep/*.json
//	cellsweep scenarios/sweep/vanilla.json scenarios/sweep/timp.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/failure"
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
		log.Fatalf("cellsweep: %v", err)
	}
}

// run loads and checks every document, then simulates them one after
// another and writes their table to out. A document cellsweep cannot run
// is refused before anything is printed.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cellsweep", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintln(fs.Output(), "usage: cellsweep FILE...") }
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if fs.NArg() == 0 {
		// Refused as the flag package refuses a flag: reason, then usage.
		err := errors.New("want one or more scenario documents")
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	variants := make([]variant, fs.NArg())
	for i, path := range fs.Args() {
		s, backend, err := fleet.LoadScenario(path)
		switch {
		case err != nil:
			return err
		case backend != nil:
			return fmt.Errorf("%s: a backend is run by cellcheck, not cellsweep", path)
		case s.UploadAddr != "":
			return fmt.Errorf("%s: an upload is run by cellsim, not cellsweep", path)
		}
		variants[i] = variant{name: strings.TrimSuffix(filepath.Base(path), ".json"), scenario: s}
	}
	start := time.Now()
	if err := sweepTable(out, variants); err != nil {
		return err
	}
	fmt.Fprintf(out, "(%v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// variant names one scenario of a sweep.
type variant struct {
	name     string
	scenario fleet.Scenario
}

// sweepTable runs the variants one after another, so their worker shards
// do not contend, and prints one row per variant read from one analysis
// pass over its run. A failed run ends the table with an error naming the
// variant.
func sweepTable(out io.Writer, variants []variant) error {
	fmt.Fprintf(out, "%-32s %8s %10s %10s %12s %9s\n",
		"variant", "events", "prevalence", "5G freq", "mean stall", "filtered")
	for _, v := range variants {
		res, pass, err := analysis.Simulate(v.scenario)
		if err != nil {
			return fmt.Errorf("variant %q: %w", v.name, err)
		}
		fiveG, _ := pass.By5G()
		stall := pass.DurationByKind()[failure.DataStall].Mean
		fmt.Fprintf(out, "%-32s %8d %9.1f%% %10.1f %11.1fs %9d\n",
			v.name, res.Monitor.Recorded, (1-pass.Figure3().ZeroShare)*100, fiveG.Frequency,
			stall.Seconds(), res.Monitor.FilteredSetup+res.Monitor.FilteredStalls)
	}
	return nil
}
