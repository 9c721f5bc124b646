// Command cellcheck is the reproduction scorecard: it simulates a vanilla
// measurement fleet (or loads a run directory) and verifies every checkable
// claim of the paper against the dataset, claim by claim. The chaos
// subcommand instead runs a fault campaign and asserts the recovery
// invariants (see runChaos).
//
// Usage:
//
//	cellcheck -devices 4000 -seed 7
//	cellcheck -in run
//	cellcheck chaos                          # bundled BS-blackout campaign, invariants I1-I3
//	cellcheck chaos -network                 # upload through a store-backed collector under transport faults: + I4-I6
//	cellcheck chaos -network -restart        # + SIGKILL it mid-campaign and reboot it from its store
//	cellcheck chaos -fleet 3                 # upload across 3 collectors behind a ring: + I7
//	cellcheck chaos -fleet 3 -restart        # + SIGKILL and reboot one of them
//	cellcheck chaos -fleet 3 -failover       # + SIGKILL one and let the survivors take over
//	cellcheck chaos -faults campaign.json -devices 3000
//
// -network, -restart, -fleet N and -failover all select the one upload
// harness and combine freely, except that -restart and -failover exclude
// each other and -failover needs -fleet N with N >= 2.
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

// errUsage marks a command line the flag package refused. It has printed
// the reason and the usage by then; main exits 2, as flag.ExitOnError does.
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

// run checks the claims, or with "chaos" first the recovery invariants,
// and writes the report to out.
func run(args []string, out io.Writer) error {
	if len(args) > 0 && args[0] == "chaos" {
		checks, err := runChaos(args[1:], out)
		if err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		if !reportChecks(out, checks) {
			return errFailed
		}
		return nil
	}
	fs := flag.NewFlagSet("cellcheck", flag.ContinueOnError)
	var (
		devices = fs.Int("devices", 4000, "fleet size (ignored with -in)")
		seed    = fs.Int64("seed", 7, "simulation seed")
		workers = fs.Int("workers", 8, "worker shards")
		inPath  = fs.String("in", "", "check a run directory (cellsim -o, or a collector's -store-dir) instead of simulating")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	var res *fleet.Result
	var err error
	if *inPath != "" {
		res, err = fleet.LoadResult(*inPath)
	} else {
		res, err = fleet.Run(fleet.Scenario{Seed: *seed, NumDevices: *devices, Workers: *workers})
	}
	if err != nil {
		return err
	}

	results := analysis.NewPass(analysis.FromResult(res)).Claims()
	fmt.Fprint(out, analysis.RenderClaims(results))
	for _, r := range results {
		if !r.Pass {
			return errFailed
		}
	}
	return nil
}
