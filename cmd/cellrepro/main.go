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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

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
	var (
		devices = fs.Int("devices", 6000, "fleet size")
		seed    = fs.Int64("seed", 7, "simulation seed")
		workers = fs.Int("workers", 8, "worker shards")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	start := time.Now()
	scenario := fleet.Scenario{Seed: *seed, NumDevices: *devices, Workers: *workers}
	m, opt, enh, err := core.FullPipeline(scenario)
	if err != nil {
		return err
	}

	report := core.BuildReport(m, opt, enh)
	_, err = io.WriteString(out, report.Markdown(time.Since(start)))
	return err
}
