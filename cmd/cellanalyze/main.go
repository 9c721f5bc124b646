// Command cellanalyze computes the paper's tables and figures from a run
// directory: one cellsim -o wrote, or a collector's -store-dir (opened
// read-only, so the collector may be running; without cellsim's context
// file the population-based figures read as zero). One line on stderr says
// what was loaded.
//
// Usage:
//
//	cellanalyze -in run table1
//	cellanalyze -in run fig4 fig10 fig15
//	cellanalyze -in collector-store all
//	cellanalyze -in vanilla -patched patched enhancement
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/telephony"
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
		log.Fatalf("cellanalyze: %v", err)
	}
}

// run loads the run directory and writes the named targets and exports to
// out; one line on stderr says what was loaded.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cellanalyze", flag.ContinueOnError)
	var (
		inPath      = fs.String("in", "run", "input run directory (cellsim -o, or a collector's -store-dir)")
		patchedPath = fs.String("patched", "", "patched run directory (for 'enhancement')")
		csvOut      = fs.String("csv", "", "export the dataset as CSV to this path")
		jsonlOut    = fs.String("jsonl", "", "export the dataset as JSON Lines to this path")
		figuresOut  = fs.String("figures-json", "", "write the canonical figures JSON document to this path (\"-\" for stdout)")
		claimsOut   = fs.String("claims-json", "", "write the claims scorecard JSON to this path (\"-\" for stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	targets := fs.Args()
	if len(targets) == 0 && *csvOut == "" && *jsonlOut == "" && *figuresOut == "" && *claimsOut == "" {
		targets = []string{"all"}
	}
	for _, target := range targets {
		switch {
		case target == "all", slices.Contains(targetOrder, target):
		case target == "enhancement":
			if *patchedPath == "" {
				return errors.New("'enhancement' needs -patched")
			}
		default:
			return fmt.Errorf("unknown target %q (known: %s, all, enhancement)", target, strings.Join(targetOrder, ", "))
		}
	}

	res, err := load(*inPath)
	if err != nil {
		return err
	}
	in := analysis.FromResult(res)
	// One pass feeds every figure target below; only the parameterized
	// time series runs its own sweep.
	pass := analysis.NewPass(in)

	if *csvOut != "" {
		if err := exportTo(*csvOut, res.Dataset.WriteCSV); err != nil {
			return fmt.Errorf("csv: %w", err)
		}
		fmt.Fprintf(out, "wrote %s\n", *csvOut)
	}
	if *jsonlOut != "" {
		if err := exportTo(*jsonlOut, res.Dataset.WriteJSONL); err != nil {
			return fmt.Errorf("jsonl: %w", err)
		}
		fmt.Fprintf(out, "wrote %s\n", *jsonlOut)
	}
	// The canonical JSON exports share their renderer with the live
	// /api/live endpoints: a post-drain live query and this batch export
	// must be byte-identical (invariant I5).
	if *figuresOut != "" {
		b, err := pass.FiguresJSON(core.Catalogue())
		if err == nil {
			err = writeOut(*figuresOut, b, out)
		}
		if err != nil {
			return fmt.Errorf("figures-json: %w", err)
		}
	}
	if *claimsOut != "" {
		b, err := pass.ClaimsJSON()
		if err == nil {
			err = writeOut(*claimsOut, b, out)
		}
		if err != nil {
			return fmt.Errorf("claims-json: %w", err)
		}
	}

	all := figureTargets(res, in, pass, out)
	for _, target := range targets {
		switch target {
		case "all":
			for _, name := range targetOrder {
				fmt.Fprintf(out, "== %s ==\n", name)
				all[name]()
				fmt.Fprintln(out)
			}
		case "enhancement":
			patched, err := load(*patchedPath)
			if err != nil {
				return err
			}
			rep := analysis.CompareEnhancement(pass, analysis.NewPass(analysis.FromResult(patched)))
			fmt.Fprint(out, analysis.RenderEnhancement(rep))
		default:
			all[target]()
		}
	}
	return nil
}

// load reads a run directory and says on stderr what it held.
func load(dir string) (*fleet.Result, error) {
	res, err := fleet.LoadResult(dir)
	if err != nil {
		return nil, err
	}
	log.Printf("cellanalyze: %s: %s", dir, res.Provenance)
	return res, nil
}

// targetOrder lists the figure targets in the order "all" prints them.
var targetOrder = []string{"table1", "table2", "correlation", "timeseries", "guidelines", "regions", "claims", "fig3", "fig4", "fig6", "fig8", "fig10", "fig11", "fig12", "fig14", "fig15", "fig16", "fig17", "overhead"}

// figureTargets returns the named figure targets over one loaded run, each
// writing to out.
func figureTargets(res *fleet.Result, in analysis.Input, pass *analysis.Pass, out io.Writer) map[string]func() {
	return map[string]func(){
		"table1": func() { fmt.Fprint(out, analysis.RenderTable1(pass.Table1(core.Catalogue()))) },
		"table2": func() { fmt.Fprint(out, analysis.RenderTable2(pass.Table2(10))) },
		"fig3": func() {
			f := pass.Figure3()
			fmt.Fprintf(out, "Failures per phone: mean %.1f, max %.0f, %.1f%% of phones failure-free, %.1f%% OOS-free\n",
				f.Mean, f.Max, f.ZeroShare*100, f.OOSFreeShare*100)
			for _, k := range []failure.Kind{failure.DataSetupError, failure.DataStall, failure.OutOfService} {
				fmt.Fprintf(out, "  mean %v per phone: %.1f\n", k, f.MeanPerKind[k])
			}
		},
		"fig4": func() {
			d := pass.Figure4()
			fmt.Fprintf(out, "Failure durations: mean %v, median %v, max %v, %.1f%% under 30s, stall share of duration %.1f%%\n",
				d.Mean, d.Median, d.Max, d.Under30*100, d.StallShareOfDuration*100)
			fmt.Fprint(out, analysis.RenderCDF("duration CDF", "s", d.CDF, 12))
		},
		"fig6": func() {
			f, n := pass.By5G()
			fmt.Fprint(out, analysis.RenderGroups("5G vs non-5G (Figures 6/7)", []analysis.GroupStats{f, n}))
		},
		"fig8": func() {
			a9, a10 := pass.ByAndroidVersion()
			fmt.Fprint(out, analysis.RenderGroups("Android version (Figures 8/9)", []analysis.GroupStats{a9, a10}))
		},
		"fig10": func() {
			f := pass.Figure10()
			fmt.Fprintf(out, "Data_Stall self-recovery: %.1f%% within 10s (paper 60%%), %.1f%% within 300s, first-op fix rate %.1f%% (paper 75%%)\n",
				f.Under10*100, f.Under300*100, f.FirstOpFixRate*100)
			fmt.Fprint(out, analysis.RenderCDF("auto-fix CDF", "s", f.CDF, 10))
		},
		"fig11": func() { fmt.Fprint(out, analysis.RenderRanking(pass.Figure11(100))) },
		"fig12": func() {
			g := pass.ByISP()
			fmt.Fprint(out, analysis.RenderGroups("ISP discrepancy (Figures 12/13)", g[:]))
		},
		"fig14": func() {
			fmt.Fprintln(out, "Failure prevalence by BS RAT (failures per 1000 connected hours):")
			for _, r := range pass.Figure14() {
				fmt.Fprintf(out, "  %v: %.2f (events %d, dwell %.0f h, %d BSes)\n", r.RAT, r.Prevalence, r.Events, r.DwellHours, r.BSes)
			}
		},
		"fig15": func() {
			fmt.Fprint(out, analysis.RenderLevels("Normalized prevalence by signal level (Figure 15)", pass.Figure15()))
		},
		"fig16": func() {
			fmt.Fprint(out, analysis.RenderLevels("4G (Figure 16)", pass.Figure16(telephony.RAT4G)))
			fmt.Fprint(out, analysis.RenderLevels("5G (Figure 16)", pass.Figure16(telephony.RAT5G)))
		},
		"fig17": func() {
			for _, pair := range analysis.Figure17Pairs() {
				fmt.Fprint(out, analysis.RenderHeatmap(pass.Figure17(pair[0], pair[1])))
			}
		},
		"timeseries": func() {
			series := analysis.TimeSeries(in, 7*24*time.Hour)
			fmt.Fprintf(out, "Weekly failure counts (spike index %.1f):\n", analysis.SpikeIndex(series))
			maxT := 0
			for _, b := range series {
				if b.Total > maxT {
					maxT = b.Total
				}
			}
			for i, b := range series {
				bars := 0
				if maxT > 0 {
					bars = b.Total * 40 / maxT
				}
				fmt.Fprintf(out, "  week %2d |%-40s| %d\n", i+1, strings.Repeat("#", bars), b.Total)
			}
		},
		"claims": func() {
			fmt.Fprint(out, analysis.RenderClaims(pass.Claims()))
		},
		"regions": func() {
			fmt.Fprint(out, analysis.RenderRegions(pass.ByRegion()))
		},
		"guidelines": func() {
			fmt.Fprint(out, analysis.RenderGuidelines(pass.Guidelines()))
		},
		"correlation": func() {
			fmt.Fprint(out, analysis.RenderCorrelation(pass.HardwareCorrelation(core.Catalogue())))
		},
		"overhead": func() {
			o := res.Overhead
			rep := analysis.CheckOverhead(o.MeanCPUUtilization, o.MaxCPUUtilization, o.MaxMemoryBytes, o.MaxStorageBytes, o.MaxNetworkBytes, 8)
			fmt.Fprintf(out, "Overhead: mean CPU %.3f%% max %.3f%%, mem %d B, storage %d B, net %d B; typical budget ok=%v worst ok=%v\n",
				rep.MeanCPUUtilization*100, rep.MaxCPUUtilization*100, rep.MaxMemoryBytes, rep.MaxStorageBytes, rep.MaxNetworkBytes,
				rep.WithinTypicalBudget, rep.WithinWorstBudget)
		},
	}
}

// writeOut writes rendered bytes to a file, or to out for "-".
func writeOut(path string, b []byte, out io.Writer) error {
	if path == "-" {
		_, err := out.Write(b)
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", path)
	return nil
}

// exportTo streams a dataset export to a file.
func exportTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
