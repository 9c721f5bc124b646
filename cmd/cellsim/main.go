// Command cellsim runs the fleet measurement study — the simulated stand-in
// for the paper's 70M-device Android-MOD deployment — and writes the
// collected dataset to disk for analysis with cellanalyze: a run
// directory, i.e. a segment store of the events (what a collector's
// -store-dir holds, so a collector can boot from it) plus one context
// file with the run's population, dwell, transition and overhead tables.
// A run directory is written once: -o must be missing or empty.
//
// Usage:
//
//	cellsim -devices 4000 -months 8 -seed 1 -o run
//	cellsim -devices 4000 -patched -o patched           # §4.2 enhancements on
//	cellsim -devices 1000 -upload 127.0.0.1:9230        # stream to a collector
//	cellsim -devices 100000 -progress 5s                # periodic progress on stderr
//	cellsim -config s.json -faults camp.json -o run     # a scenario file
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
	"strings"
	"time"

	"repro/internal/android"
	"repro/internal/faultinject"
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

// run simulates the fleet and saves the run directory. The result report
// goes to out; the metrics summary and -progress lines go to stderr.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cellsim", flag.ContinueOnError)
	var (
		config   = fs.String("config", "", "JSON scenario file; it sets the whole scenario, so beside it only -faults, -o and -progress may be given")
		devices  = fs.Int("devices", 4000, "fleet size")
		months   = fs.Float64("months", 8, "measurement window in months")
		seed     = fs.Int64("seed", 1, "simulation seed")
		numBS    = fs.Int("bs", 0, "base stations (default devices/2)")
		workers  = fs.Int("workers", 8, "simulation worker shards")
		patched  = fs.Bool("patched", false, "enable the §4.2 enhancements (stability-compatible RAT policy, dual connectivity, TIMP trigger)")
		faults   = fs.String("faults", "", "JSON fault-campaign file to superimpose on the run (see internal/faultinject)")
		upload   = fs.String("upload", "", "collector address to upload events to over TCP")
		buffer   = fs.Int("buffer", 0, "with -upload: max buffered events per shard before spilling or shedding (0: unbounded)")
		spill    = fs.String("spill", "", "with -upload: directory for per-shard spill WALs once -buffer is exceeded (empty: shed oldest)")
		outDir   = fs.String("o", "run", "output run directory, missing or empty (empty string to skip)")
		progress = fs.Duration("progress", 0, "print periodic progress (devices done, events/sec) to stderr; 0 disables")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	if *config != "" {
		var beside []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "config", "faults", "o", "progress":
			default:
				beside = append(beside, "-"+f.Name)
			}
		})
		if len(beside) > 0 {
			// Refused as the flag package refuses a flag: reason, then usage.
			err := fmt.Errorf("-config sets the whole scenario; %s cannot be given beside it", strings.Join(beside, ", "))
			fmt.Fprintln(fs.Output(), err)
			fs.PrintDefaults()
			return fmt.Errorf("%w: %w", errUsage, err)
		}
	}

	if *outDir != "" {
		if err := fleet.CheckRunDir(*outDir); err != nil {
			return fmt.Errorf("-o: %w (remove it, name another, or pass -o '' to skip saving)", err)
		}
	}

	var scenario fleet.Scenario
	if *config != "" {
		var backend *fleet.Backend
		var err error
		scenario, backend, err = fleet.LoadScenario(*config)
		if err != nil {
			return err
		}
		if backend != nil {
			return fmt.Errorf("%s: a backend is run by cellcheck, not cellsim (use upload_addr to upload to a collector)", *config)
		}
	} else {
		scenario = fleet.Scenario{
			Seed:              *seed,
			NumDevices:        *devices,
			Window:            time.Duration(*months * 30 * 24 * float64(time.Hour)),
			NumBS:             *numBS,
			Workers:           *workers,
			UploadAddr:        *upload,
			UploadBufferLimit: *buffer,
			UploadSpillDir:    *spill,
		}
		if *patched {
			scenario = scenario.Patched(android.PaperTIMPTrigger)
		}
	}
	if *faults != "" {
		campaign, err := faultinject.LoadCampaign(*faults)
		if err != nil {
			return err
		}
		scenario.Faults = campaign
	}

	var stopProgress chan struct{}
	if *progress > 0 {
		stopProgress = make(chan struct{})
		// Report against the normalized scenario: a -config file may omit
		// NumDevices (Run fills in the default), and the raw config value
		// would show a 0 total forever.
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
		fmt.Fprintf(out, "wrote run directory %s (%d events)\n", *outDir, res.Dataset.Len())
	}
	return nil
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
