// Command cellsweep runs the ablation sweeps DESIGN.md calls out: RAT
// policy variants, dual connectivity, recovery triggers, and false-positive
// filtering, printing a comparison table. FILE is the scenario document of
// the vanilla fleet every variant starts from (fleet.ParseScenario): each
// sweep's first row runs it as it is, and every other row changes only
// what its name says.
//
// Usage:
//
//	cellsweep scenarios/sweep.json
//	cellsweep -sweep trigger scenarios/sweep.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/android"
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

// run simulates every variant of the chosen sweeps and writes one table per
// sweep to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cellsweep", flag.ContinueOnError)
	sweep := fs.String("sweep", "policy", "which sweep: policy | trigger | fpfilter | all")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: cellsweep [-sweep NAME] FILE")
		fs.PrintDefaults()
	}
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
	base, backend, err := fleet.LoadScenario(fs.Arg(0))
	if err != nil {
		return err
	}
	if backend != nil {
		return fmt.Errorf("%s: a backend is run by cellcheck, not cellsweep", fs.Arg(0))
	}
	if base.Policy != fleet.PolicyVanilla || base.Trigger != android.DefaultFixedTrigger || base.DualConnectivity || base.DisableFPFilter {
		return fmt.Errorf("%s: the rows are named against the vanilla fleet: leave out policy, trigger, dual_connectivity and disable_fp_filter", fs.Arg(0))
	}

	sweeps := map[string][]variant{
		"policy": {
			{name: "vanilla (Android 9/10 stock)", scenario: base},
			{name: "stability-compatible", scenario: with(base, func(s *fleet.Scenario) { s.Policy = fleet.PolicyStability })},
			{name: "stability + dual connectivity", scenario: with(base, func(s *fleet.Scenario) {
				s.Policy = fleet.PolicyStability
				s.DualConnectivity = true
			})},
			{name: "never-5G", scenario: with(base, func(s *fleet.Scenario) { s.Policy = fleet.PolicyNever5G })},
		},
		"trigger": {
			{name: "fixed 60s probations (vanilla)", scenario: base},
			{name: "TIMP 21/6/16s (paper)", scenario: with(base, func(s *fleet.Scenario) { s.Trigger = android.PaperTIMPTrigger })},
			{name: "aggressive 5/5/5s", scenario: with(base, func(s *fleet.Scenario) {
				s.Trigger = android.ProfileTrigger{5 * time.Second, 5 * time.Second, 5 * time.Second}
			})},
		},
		"fpfilter": {
			{name: "filtering on (Android-MOD)", scenario: base},
			{name: "filtering off (ablation)", scenario: with(base, func(s *fleet.Scenario) { s.DisableFPFilter = true })},
		},
	}

	names := []string{*sweep}
	if *sweep == "all" {
		names = []string{"policy", "trigger", "fpfilter"}
	} else if _, ok := sweeps[*sweep]; !ok {
		return fmt.Errorf("unknown sweep %q", *sweep)
	}
	n := base.Normalized()
	for _, name := range names {
		fmt.Fprintf(out, "== %s sweep (%d devices, seed %d) ==\n", name, n.NumDevices, n.Seed)
		start := time.Now()
		if err := sweepTable(out, sweeps[name]); err != nil {
			return err
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

func with(s fleet.Scenario, mutate func(*fleet.Scenario)) fleet.Scenario {
	mutate(&s)
	return s
}
