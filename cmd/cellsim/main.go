// Command cellsim runs the fleet measurement study — the simulated stand-in
// for the paper's 70M-device Android-MOD deployment — and writes the
// collected dataset to disk for analysis with cellanalyze: a run
// directory, i.e. a segment store of the events (what a collector's
// -store-dir holds, so a collector can boot from it) plus one context
// file with the run's population, dwell, transition and overhead tables.
// A run directory is written once: -o must be missing or empty.
//
// FILE is a scenario document (fleet.ParseScenario): the whole run —
// fleet, window, seed, policy, trigger, faults and where to upload —
// comes from it. A document with a backend is cellcheck's to run.
//
// Usage:
//
//	cellsim -o run scenarios/report.json
//	cellsim -o patched scenarios/report-patched.json   # §4.2 enhancements on
//	cellsim -o '' -progress 2s scenarios/upload.json   # stream to a collector, progress on stderr
//
// After the run a one-line metrics summary (the fleet_*, monitor_*, and
// trace_* counter/gauge families) is printed to stderr; -progress N
// additionally reports devices done, recorded events, and events/sec
// every N while the fleet simulates.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/fleet"
	"repro/internal/metrics"
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
		log.Fatalf("cellsim: %v", err)
	}
}

// run simulates the document's fleet and saves the run directory. The
// result report goes to out; the metrics summary and -progress lines go
// to stderr.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cellsim", flag.ContinueOnError)
	var (
		outDir   = fs.String("o", "run", "output run directory, missing or empty (empty string to skip)")
		progress = fs.Duration("progress", 0, "print periodic progress (devices done, events/sec) to stderr; 0 disables")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: cellsim [-o DIR] [-progress D] FILE")
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
	path := fs.Arg(0)

	if *outDir != "" {
		if err := fleet.CheckRunDir(*outDir); err != nil {
			return fmt.Errorf("-o: %w (remove it, name another, or pass -o '' to skip saving)", err)
		}
	}
	scenario, backend, err := fleet.LoadScenario(path)
	if err != nil {
		return err
	}
	if backend != nil {
		return fmt.Errorf("%s: a backend is run by cellcheck, not cellsim (use upload_addr to upload to a collector)", path)
	}

	var stopProgress chan struct{}
	if *progress > 0 {
		stopProgress = make(chan struct{})
		// Report against the normalized scenario: a document may omit
		// devices (Run fills in the default), and the raw value would show
		// a 0 total forever.
		go reportProgress(*progress, scenario.Normalized().NumDevices, stopProgress)
	}

	start := time.Now()
	res, err := fleet.Run(scenario)
	elapsed := time.Since(start)
	if stopProgress != nil {
		close(stopProgress)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s\n", res)
	fmt.Fprintf(out, "simulated %.1f months of %d devices in %v\n",
		res.Scenario.Window.Hours()/24/30, res.Population.Total, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "monitor: recorded=%d filtered-setup=%d filtered-stalls=%d probe-rounds=%d legacy-fallbacks=%d\n",
		res.Monitor.Recorded, res.Monitor.FilteredSetup, res.Monitor.FilteredStalls,
		res.Monitor.ProbeRounds, res.Monitor.LegacyFallbacks)
	fmt.Fprintf(out, "overhead: mean CPU %.3f%%, max CPU %.3f%%, max storage %d B, max net %d B\n",
		res.Overhead.MeanCPUUtilization()*100, res.Overhead.MaxCPUUtilization*100,
		res.Overhead.MaxStorageBytes, res.Overhead.MaxNetworkBytes)
	if res.Faults != nil {
		fmt.Fprintf(out, "faults: %s\n  unresolved=%d wedged=%d open-setups=%d\n",
			res.Faults, res.Faults.Unresolved(), res.Integrity.Wedged, res.Integrity.OpenSetups)
	}

	// One-line runtime metrics summary on stderr: the same counters the
	// /metrics endpoints export, so scripted runs can grep pipeline
	// health (uploader retries, filtered classes, shard counts) without
	// standing up an HTTP listener. A probing round is one scheduler
	// event (its completion), not one per probe reply.
	simEvents, _ := metrics.Default().Value("fleet_sim_events_total")
	fmt.Fprintf(os.Stderr, "metrics: %s sim_events/s=%.0f\n",
		metrics.Default().Summary("fleet_", "monitor_", "trace_", "faultinject_"), simEvents/elapsed.Seconds())

	if *outDir != "" {
		if err := fleet.SaveResult(*outDir, res); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		segBytes, err := segmentBytes(*outDir)
		if err != nil {
			return err
		}
		n := res.Dataset.Len()
		fmt.Fprintf(out, "wrote run directory %s (%d events, %d segment bytes, %.1f B/event)\n",
			*outDir, n, segBytes, float64(segBytes)/float64(max(n, 1)))
	}
	return nil
}

// segmentBytes sums the sizes of the segment files in run directory dir.
func segmentBytes(dir string) (int64, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.v3s"))
	if err != nil {
		return 0, err
	}
	var total int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// reportProgress prints a progress line to stderr every interval until
// done closes, reading the live fleet/monitor counters: devices finished
// so far (each worker lane bumps the counter per device, so the count
// moves throughout the run instead of jumping at shard completion),
// failure events recorded so far, and the recent recording rate.
func reportProgress(interval time.Duration, totalDevices int, done <-chan struct{}) {
	reg := metrics.Default()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	lastEvents, lastAt := 0.0, time.Now()
	for {
		select {
		case <-done:
			return
		case <-tick.C:
			devices, _ := reg.Value("fleet_devices_simulated_total")
			events, _ := reg.Value("monitor_events_recorded_total")
			queued, _ := reg.Value("fleet_shard_queue_depth")
			now := time.Now()
			rate := (events - lastEvents) / now.Sub(lastAt).Seconds()
			lastEvents, lastAt = events, now
			fmt.Fprintf(os.Stderr, "progress: devices %.0f/%d, events=%.0f (%.0f events/s), queued=%.0f\n",
				devices, totalDevices, events, rate, queued)
		}
	}
}
