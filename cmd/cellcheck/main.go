// Command cellcheck runs scenario documents and checks what they run: the
// reproduction scorecard of the paper's claims, or a fault campaign's
// recovery invariants (see runChaos). A document is the scenario JSON
// cellsim runs plus an optional backend, {"collectors": N, "kill":
// "restart"|"failover"}; scenarios/ holds one per check beside the run
// documents of cellsim and cellrepro (cellsweep's are in
// scenarios/sweep/). With neither
// faults nor a backend a document runs the scorecard; with faults, the
// invariants I1-I3; with a backend, the upload harness and I1-I7.
// -in DIR prints the scorecard of a saved run directory instead.
//
// Usage:
//
//	cellcheck scenarios/claims.json
//	cellcheck scenarios/chaos-*.json
//	cellcheck -in run
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/fleet"
)

// errUsage marks a refused command line. The reason and the usage are
// printed by then; main exits 2, as flag.ExitOnError does.
var errUsage = errors.New("usage")

// errFailed marks a run whose report, already written, shows a failing
// claim or invariant; main exits 1 without another line.
var errFailed = errors.New("a check failed")

func main() {
	log.SetFlags(0)
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	case errors.Is(err, errFailed):
		os.Exit(1)
	default:
		log.Fatalf("cellcheck: %v", err)
	}
}

// run checks each scenario document, or the run directory -in names, and
// writes the reports to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cellcheck", flag.ContinueOnError)
	inPath := fs.String("in", "", "print the scorecard of a run directory (cellsim -o, or a collector's -store-dir) instead of running documents")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: cellcheck FILE... | cellcheck -in DIR")
		fs.PrintDefaults()
	}
	// Flags may come after a document too, so a flag this command does
	// not define is refused by name wherever it stands.
	var paths []string
	for {
		if err := fs.Parse(args); err != nil {
			return fmt.Errorf("%w: %w", errUsage, err)
		}
		if fs.NArg() == 0 {
			break
		}
		paths = append(paths, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if (*inPath == "") == (len(paths) == 0) {
		// Refused as the flag package refuses a flag: reason, then usage.
		err := errors.New("give scenario documents or -in DIR, one of the two")
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *inPath != "" {
		fold := analysis.NewFold()
		res, err := fleet.ReadRun(*inPath, fold.Add)
		if err != nil {
			return err
		}
		return scorecard(fold.Pass(res.Context), out)
	}
	var failed error
	for _, path := range paths {
		if len(paths) > 1 {
			fmt.Fprintf(out, "== %s\n", path)
		}
		if err := check(path, out); errors.Is(err, errFailed) {
			failed = err
		} else if err != nil {
			return err
		}
	}
	return failed
}

// check runs one document: the claims scorecard when it has neither
// faults nor a backend, the recovery invariants otherwise.
func check(path string, out io.Writer) error {
	s, b, err := fleet.LoadScenario(path)
	if err != nil {
		return err
	}
	if s.Faults == nil && b == nil {
		_, pass, err := analysis.Simulate(s)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		return scorecard(pass, out)
	}
	checks, err := runChaos(s, b, out)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if !reportChecks(out, checks) {
		return errFailed
	}
	return nil
}

// scorecard writes the claims report of pass to out.
func scorecard(pass *analysis.Pass, out io.Writer) error {
	results := pass.Claims()
	fmt.Fprint(out, analysis.RenderClaims(results))
	for _, r := range results {
		if !r.Pass {
			return errFailed
		}
	}
	return nil
}
