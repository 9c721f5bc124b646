// Command cellrepro regenerates every table and figure of the paper end to
// end: it simulates the vanilla measurement fleet, analyzes the dataset,
// fits and anneals the TIMP recovery model, simulates the patched fleet,
// and prints a paper-vs-measured report (markdown) for each experiment.
//
// Usage:
//
//	cellrepro -devices 6000 -seed 7 > EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
)

func main() {
	log.SetFlags(0)
	var (
		devices = flag.Int("devices", 6000, "fleet size")
		seed    = flag.Int64("seed", 7, "simulation seed")
		workers = flag.Int("workers", 8, "worker shards")
	)
	flag.Parse()

	start := time.Now()
	scenario := fleet.Scenario{Seed: *seed, NumDevices: *devices, Workers: *workers}
	m, opt, enh, err := core.FullPipeline(scenario)
	if err != nil {
		log.Fatalf("cellrepro: %v", err)
	}

	report := core.BuildReport(m, opt, enh)
	fmt.Print(report.Markdown(time.Since(start)))
}
