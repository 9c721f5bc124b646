// Command cellsweep runs the ablation sweeps DESIGN.md calls out: RAT
// policy variants, dual connectivity, recovery triggers, and false-positive
// filtering, printing a comparison table.
//
// Usage:
//
//	cellsweep -devices 1500 -seed 7
//	cellsweep -devices 1500 -sweep trigger
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

// run simulates every variant of the chosen sweeps and writes one table per
// sweep to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cellsweep", flag.ContinueOnError)
	var (
		devices = fs.Int("devices", 1500, "fleet size per variant")
		seed    = fs.Int64("seed", 7, "simulation seed (shared across variants)")
		workers = fs.Int("workers", 8, "worker shards")
		sweep   = fs.String("sweep", "policy", "which sweep: policy | trigger | fpfilter | all")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	base := fleet.Scenario{Seed: *seed, NumDevices: *devices, Workers: *workers}

	sweeps := map[string][]fleet.SweepPoint{
		"policy": {
			{Name: "vanilla (Android 9/10 stock)", Scenario: base},
			{Name: "stability-compatible", Scenario: with(base, func(s *fleet.Scenario) { s.Policy = fleet.PolicyStability })},
			{Name: "stability + dual connectivity", Scenario: with(base, func(s *fleet.Scenario) {
				s.Policy = fleet.PolicyStability
				s.DualConnectivity = true
			})},
			{Name: "never-5G", Scenario: with(base, func(s *fleet.Scenario) { s.Policy = fleet.PolicyNever5G })},
		},
		"trigger": {
			{Name: "fixed 60s probations (vanilla)", Scenario: base},
			{Name: "TIMP 21/6/16s (paper)", Scenario: with(base, func(s *fleet.Scenario) { s.Trigger = android.PaperTIMPTrigger })},
			{Name: "aggressive 5/5/5s", Scenario: with(base, func(s *fleet.Scenario) {
				s.Trigger = android.ProfileTrigger{5 * time.Second, 5 * time.Second, 5 * time.Second}
			})},
		},
		"fpfilter": {
			{Name: "filtering on (Android-MOD)", Scenario: base},
			{Name: "filtering off (ablation)", Scenario: with(base, func(s *fleet.Scenario) { s.DisableFPFilter = true })},
		},
	}

	names := []string{*sweep}
	if *sweep == "all" {
		names = []string{"policy", "trigger", "fpfilter"}
	} else if _, ok := sweeps[*sweep]; !ok {
		return fmt.Errorf("unknown sweep %q", *sweep)
	}
	for _, name := range names {
		fmt.Fprintf(out, "== %s sweep (%d devices, seed %d) ==\n", name, *devices, *seed)
		start := time.Now()
		rows, err := fleet.Sweep(sweeps[name])
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-32s %8s %10s %10s %12s %9s\n",
			"variant", "events", "prevalence", "5G freq", "mean stall", "filtered")
		for _, r := range rows {
			fmt.Fprintf(out, "%-32s %8d %9.1f%% %10.1f %11.1fs %9d\n",
				r.Name, r.Events, r.Prevalence*100, r.FiveGFrequency, r.MeanStallSeconds, r.FilteredFalsePositives)
		}
		fmt.Fprintf(out, "(%v)\n", time.Since(start).Round(time.Millisecond))
		if name == "trigger" {
			fmt.Fprintln(out, "note: raw stall duration favors near-zero probations; the TIMP objective")
			fmt.Fprintln(out, "additionally charges each executed operation's user-disruption penalty,")
			fmt.Fprintln(out, "which is why the deployed optimum is interior (see DESIGN.md).")
		}
		fmt.Fprintln(out)
	}
	return nil
}

func with(s fleet.Scenario, mutate func(*fleet.Scenario)) fleet.Scenario {
	mutate(&s)
	return s
}
