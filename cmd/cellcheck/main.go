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
	"flag"
	"fmt"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/fleet"
)

func main() {
	log.SetFlags(0)
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		checks, err := runChaos(os.Args[2:])
		if err != nil {
			log.Fatalf("cellcheck chaos: %v", err)
		}
		if !reportChecks(checks) {
			os.Exit(1)
		}
		return
	}
	var (
		devices = flag.Int("devices", 4000, "fleet size (ignored with -in)")
		seed    = flag.Int64("seed", 7, "simulation seed")
		workers = flag.Int("workers", 8, "worker shards")
		inPath  = flag.String("in", "", "check a run directory (cellsim -o, or a collector's -store-dir) instead of simulating")
	)
	flag.Parse()

	var res *fleet.Result
	var err error
	if *inPath != "" {
		res, err = fleet.LoadResult(*inPath)
	} else {
		res, err = fleet.Run(fleet.Scenario{Seed: *seed, NumDevices: *devices, Workers: *workers})
	}
	if err != nil {
		log.Fatalf("cellcheck: %v", err)
	}

	results := analysis.NewPass(analysis.FromResult(res)).Claims()
	fmt.Print(analysis.RenderClaims(results))
	for _, r := range results {
		if !r.Pass {
			os.Exit(1)
		}
	}
}
