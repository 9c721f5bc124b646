// Command bench is the pipeline benchmark for the deployed configuration:
// one command drives simulate → v3 upload → store-backed collector(s) →
// streaming engine → queries → batch pass → restart through three traffic
// mixes and prints every metric by name with its unit. See README.md.
//
//	go run ./bench -seed 11                       # all three workloads, table + bench/out/result.json
//	go run ./bench -seed 11 -trace 1              # per-layer metrics and bench/out/<workload>.trace.json
//	go run ./bench -seed 11 -runs 10 -out a.json  # ten seeds per workload: medians and run-to-run spread
//	go run ./bench -workload ingest_small -seed 3 # one workload, result line last (the driver's protocol)
//	go run ./bench -compare a.json b.json         # regression table between two result files
//	go run ./bench -spec > BENCHMARK.json         # the contract file, generated from spec.go
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// workloadTimeout is the wall-clock limit of one workload: under the
// driver's 180 s, so a hang fails the run with a message instead.
const workloadTimeout = 170 * time.Second

func main() {
	var (
		workload = flag.String("workload", "", "run one workload in this process and print its result line last (default: all, one child process each)")
		seed     = flag.Int64("seed", 11, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Int("seconds", runSeconds, "size of the run: timed work is a fixed amount that takes about this long on the 2-core reference sandbox")
		traced   = flag.Int("trace", 0, "1: traced run (span recorder on, isolation passes) reporting the per-layer metrics; 0: end-to-end metrics")
		runs     = flag.Int("runs", 1, "all-workloads mode: runs per workload, on seeds seed, seed+1, …")
		outFile  = flag.String("out", filepath.Join("bench", "out", "result.json"), "result file of the all-workloads mode; per-workload outcome and trace files and the temporary store directories go beside it")
		compare  = flag.Bool("compare", false, "compare two result files given as arguments: old.json new.json")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as the tables in spec.go define it, and exit")
	)
	flag.Parse()
	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare old.json new.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *workload != "":
		os.Exit(runOne(*workload, *seed, *seconds, *traced != 0, filepath.Dir(*outFile)))
	default:
		os.Exit(runAll(*seed, *seconds, *traced != 0, *runs, *outFile))
	}
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// outcomePath is where the one-workload mode leaves its full outcome
// (timings, checks, sizes) for the all-workloads mode to collect.
func outcomePath(outDir, workload string) string {
	return filepath.Join(outDir, workload+".outcome.json")
}

// runOne runs one workload in this process. Exit code 0 means every
// operation succeeded and every output check passed.
func runOne(name string, seed int64, seconds int, traced bool, outDir string) int {
	m, ok := mixByName(name)
	if !ok {
		fatal(2, "unknown workload %q", name)
	}
	if seconds < 1 {
		fatal(2, "-seconds must be at least 1")
	}
	// Guard rails: temporary store directories live under a per-process
	// root that is removed on every exit path (failed checks, panics and
	// an interrupt included), and a watchdog turns a hang into a failed run.
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)
	watchdog := time.AfterFunc(workloadTimeout, func() {
		os.RemoveAll(runDir)
		fatal(3, "workload %s exceeded its %s wall-clock limit", name, workloadTimeout)
	})
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-interrupted
		os.RemoveAll(runDir)
		fatal(3, "workload %s stopped by %s", name, sig)
	}()
	out, err := runWorkload(m, m.sized(seconds), seed, seconds, traced, runDir)
	watchdog.Stop()
	if err == nil && traced {
		// Keep the trace file; everything else under runDir is scratch.
		kept := filepath.Join(outDir, filepath.Base(out.Info.TraceFile))
		if err = os.Rename(out.Info.TraceFile, kept); err == nil {
			out.Info.TraceFile = kept
		}
	}
	if err == nil {
		raw, _ := json.MarshalIndent(out, "", " ")
		err = os.WriteFile(outcomePath(outDir, name), raw, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}

	printOutcome(out)
	line, _ := json.Marshal(resultLine{out.Correct, out.Attempted, out.Failed, out.Metrics})
	fmt.Println(string(line))
	if !out.Correct || out.Failed > 0 {
		return 1
	}
	return 0
}

// printOutcome prints every metric by name with its unit, then the checks.
func printOutcome(out *outcome) {
	fmt.Printf("workload %s seed %d seconds %d traced %v: %d devices, %d pool events in %d frames, %d events/rep, %d reps, C=%d, nproc=%d, %s, %.1fs wall\n",
		out.Workload, out.Seed, out.Seconds, out.Traced, out.Info.Devices, out.Info.PoolEvents, out.Info.PoolFrames,
		out.Info.EventsPerRep, out.Info.Reps, out.Info.Uploaders, out.Info.NProc, out.Info.GoVersion, out.Info.WallSeconds)
	defs := endToEnd
	if out.Traced {
		defs = perLayer
	} else {
		fmt.Printf("  machine speed %.3f of the reference; wall-clock metrics below are scaled to speed 1 (unscaled: raw.* in the outcome file)\n", out.Info.MachineSpeed)
	}
	for _, d := range defs {
		v := out.Metrics[d.Name]
		fmt.Printf("  %-36s %16.4f %-6s", d.Name, v.Value, v.Unit)
		if t, ok := out.Timings[d.Name]; ok && t.N > 1 {
			fmt.Printf("  n=%d", t.N)
		}
		if d.Layer != "" {
			fmt.Printf("  [%s]", d.Layer)
		}
		fmt.Println()
	}
	for _, name := range []string{"ack_ms", "query_light_ms"} {
		if t, ok := out.Timings[name]; ok {
			fmt.Printf("  %-36s %16.4f ms      n=%d", name+" (pooled)", t.Median, t.N)
			if t.TopPct > 0 {
				fmt.Printf("  p%g=%.4f", t.TopPct, t.Top)
			}
			fmt.Println()
		}
	}
	passed := 0
	for _, c := range out.Checks {
		if c.OK {
			passed++
		} else {
			fmt.Printf("  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Printf("  checks %d/%d passed, operations attempted %d failed %d\n", passed, len(out.Checks), out.Attempted, out.Failed)
	if out.Info.TraceFile != "" {
		fmt.Printf("  spans written to %s\n", out.Info.TraceFile)
	}
}

// resultFile is what the all-workloads mode writes and -compare reads.
type resultFile struct {
	Seed      int64                     `json:"seed"`
	Seconds   int                       `json:"seconds"`
	Runs      int                       `json:"runs"`
	Traced    bool                      `json:"traced"`
	Info      runInfo                   `json:"info"`
	Workloads map[string]*workloadStats `json:"workloads"`
}

type workloadStats struct {
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Metrics   map[string]*metricStat `json:"metrics"`
	Runs      []*outcome             `json:"runs"`
}

// metricStat is one metric over the runs of one workload.
type metricStat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median; 0 with a single run
	Values []float64 `json:"values"`
}

// runAll runs every workload in its own child process (so peak RSS and
// MemStats deltas belong to one workload), `runs` times each on
// consecutive seeds, prints the table and writes the result file.
func runAll(seed int64, seconds int, traced bool, runs int, outFile string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	outDir := filepath.Dir(outFile)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(1, "%v", err)
	}
	rf := resultFile{Seed: seed, Seconds: seconds, Runs: runs, Traced: traced, Workloads: map[string]*workloadStats{}}
	code := 0
	for _, m := range mixes {
		ws := &workloadStats{Correct: true, Metrics: map[string]*metricStat{}}
		rf.Workloads[m.name] = ws
		for i := 0; i < runs; i++ {
			t := 0
			if traced {
				t = 1
			}
			os.Remove(outcomePath(outDir, m.name)) // a failed child must not be read as the previous run
			cmd := exec.Command(self, "-workload", m.name, "-seed", fmt.Sprint(seed+int64(i)), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(t), "-out", outFile)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			runErr := cmd.Run()
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
			fmt.Println()
			var out outcome
			raw, err := os.ReadFile(outcomePath(outDir, m.name))
			if err == nil {
				err = json.Unmarshal(raw, &out)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s run %d produced no result: %v (%v)\n", m.name, i, err, runErr)
				ws.Correct = false
				code = 1
				continue
			}
			if runErr != nil {
				code = 1
			}
			ws.Runs = append(ws.Runs, &out)
			ws.Attempted += out.Attempted
			ws.Failed += out.Failed
			ws.Correct = ws.Correct && out.Correct
			rf.Info = out.Info
		}
		if len(ws.Runs) == 0 {
			continue
		}
		for name := range ws.Runs[0].Metrics {
			st := &metricStat{Unit: ws.Runs[0].Metrics[name].Unit}
			for _, o := range ws.Runs {
				st.Values = append(st.Values, o.Metrics[name].Value)
			}
			st.Median = median(st.Values)
			st.Q1, st.Q3 = quartiles(st.Values)
			st.Spread = spread(st.Values)
			ws.Metrics[name] = st
		}
	}
	rf.Info.TraceFile, rf.Info.WallSeconds = "", 0
	printSummary(&rf)
	raw, _ := json.MarshalIndent(&rf, "", " ")
	if err := os.WriteFile(outFile, raw, 0o644); err != nil {
		fatal(1, "write %s: %v", outFile, err)
	}
	fmt.Printf("result written to %s\n", outFile)
	return code
}

// printSummary prints one row per workload × metric: the median over the
// runs, and with more than one run the quartile spread beside its bound.
func printSummary(rf *resultFile) {
	fmt.Printf("\n== summary: seed %d, %d run(s) per workload, seconds %d ==\n", rf.Seed, rf.Runs, rf.Seconds)
	for _, m := range mixes {
		ws := rf.Workloads[m.name]
		fmt.Printf("%s  (correct=%v attempted=%d failed=%d)\n", m.name, ws.Correct, ws.Attempted, ws.Failed)
		defs := endToEnd
		if rf.Traced {
			defs = perLayer
		}
		for _, d := range defs {
			st := ws.Metrics[d.Name]
			if st == nil {
				continue
			}
			fmt.Printf("  %-36s %16.4f %-6s", d.Name, st.Median, st.Unit)
			if len(st.Values) > 1 {
				fmt.Printf("  spread %6.2f%%", 100*st.Spread)
				if d.Bound > 0 {
					fmt.Printf("  (bound %4.1f%%)", 100*d.Bound)
				}
			}
			fmt.Println()
		}
	}
}
