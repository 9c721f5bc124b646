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
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/telephony"
)

func main() {
	log.SetFlags(0)
	var (
		inPath      = flag.String("in", "run", "input run directory (cellsim -o, or a collector's -store-dir)")
		patchedPath = flag.String("patched", "", "patched run directory (for 'enhancement')")
		csvOut      = flag.String("csv", "", "export the dataset as CSV to this path")
		jsonlOut    = flag.String("jsonl", "", "export the dataset as JSON Lines to this path")
		figuresOut  = flag.String("figures-json", "", "write the canonical figures JSON document to this path (\"-\" for stdout)")
		claimsOut   = flag.String("claims-json", "", "write the claims scorecard JSON to this path (\"-\" for stdout)")
	)
	flag.Parse()
	targets := flag.Args()
	if len(targets) == 0 && *csvOut == "" && *jsonlOut == "" && *figuresOut == "" && *claimsOut == "" {
		targets = []string{"all"}
	}

	res := load(*inPath)
	in := analysis.FromResult(res)
	// One pass feeds every figure target below; only the parameterized
	// time series runs its own sweep.
	pass := analysis.NewPass(in)

	if *csvOut != "" {
		if err := exportTo(*csvOut, res.Dataset.WriteCSV); err != nil {
			log.Fatalf("cellanalyze: csv: %v", err)
		}
		fmt.Printf("wrote %s\n", *csvOut)
	}
	if *jsonlOut != "" {
		if err := exportTo(*jsonlOut, res.Dataset.WriteJSONL); err != nil {
			log.Fatalf("cellanalyze: jsonl: %v", err)
		}
		fmt.Printf("wrote %s\n", *jsonlOut)
	}
	// The canonical JSON exports share their renderer with the live
	// /api/live endpoints: a post-drain live query and this batch export
	// must be byte-identical (invariant I5).
	if *figuresOut != "" {
		b, err := pass.FiguresJSON(core.Catalogue())
		if err != nil {
			log.Fatalf("cellanalyze: figures-json: %v", err)
		}
		if err := writeOut(*figuresOut, b); err != nil {
			log.Fatalf("cellanalyze: figures-json: %v", err)
		}
	}
	if *claimsOut != "" {
		b, err := pass.ClaimsJSON()
		if err != nil {
			log.Fatalf("cellanalyze: claims-json: %v", err)
		}
		if err := writeOut(*claimsOut, b); err != nil {
			log.Fatalf("cellanalyze: claims-json: %v", err)
		}
	}
	if len(flag.Args()) == 0 && (*csvOut != "" || *jsonlOut != "" || *figuresOut != "" || *claimsOut != "") {
		return
	}

	all, order := figureTargets(res, in, pass)

	for _, target := range targets {
		switch target {
		case "all":
			for _, name := range order {
				fmt.Printf("== %s ==\n", name)
				all[name]()
				fmt.Println()
			}
		case "enhancement":
			if *patchedPath == "" {
				log.Fatal("cellanalyze: 'enhancement' needs -patched")
			}
			rep := analysis.CompareEnhancement(pass, analysis.NewPass(analysis.FromResult(load(*patchedPath))))
			fmt.Print(analysis.RenderEnhancement(rep))
		default:
			fn, ok := all[target]
			if !ok {
				log.Fatalf("cellanalyze: unknown target %q (known: %s, all, enhancement)", target, strings.Join(order, ", "))
			}
			fn()
		}
	}
}

// load reads a run directory and says on stderr what it held.
func load(dir string) *fleet.Result {
	res, err := fleet.LoadResult(dir)
	if err != nil {
		log.Fatalf("cellanalyze: %v", err)
	}
	log.Printf("cellanalyze: %s: %s", dir, res.Provenance)
	return res
}

// figureTargets returns the named figure targets over one loaded run and
// the order "all" prints them in.
func figureTargets(res *fleet.Result, in analysis.Input, pass *analysis.Pass) (map[string]func(), []string) {
	return map[string]func(){
		"table1": func() { fmt.Print(analysis.RenderTable1(pass.Table1(core.Catalogue()))) },
		"table2": func() { fmt.Print(analysis.RenderTable2(pass.Table2(10))) },
		"fig3": func() {
			f := pass.Figure3()
			fmt.Printf("Failures per phone: mean %.1f, max %.0f, %.1f%% of phones failure-free, %.1f%% OOS-free\n",
				f.Mean, f.Max, f.ZeroShare*100, f.OOSFreeShare*100)
			for _, k := range []failure.Kind{failure.DataSetupError, failure.DataStall, failure.OutOfService} {
				fmt.Printf("  mean %v per phone: %.1f\n", k, f.MeanPerKind[k])
			}
		},
		"fig4": func() {
			d := pass.Figure4()
			fmt.Printf("Failure durations: mean %v, median %v, max %v, %.1f%% under 30s, stall share of duration %.1f%%\n",
				d.Mean, d.Median, d.Max, d.Under30*100, d.StallShareOfDuration*100)
			fmt.Print(analysis.RenderCDF("duration CDF", "s", d.CDF, 12))
		},
		"fig6": func() {
			f, n := pass.By5G()
			fmt.Print(analysis.RenderGroups("5G vs non-5G (Figures 6/7)", []analysis.GroupStats{f, n}))
		},
		"fig8": func() {
			a9, a10 := pass.ByAndroidVersion()
			fmt.Print(analysis.RenderGroups("Android version (Figures 8/9)", []analysis.GroupStats{a9, a10}))
		},
		"fig10": func() {
			f := pass.Figure10()
			fmt.Printf("Data_Stall self-recovery: %.1f%% within 10s (paper 60%%), %.1f%% within 300s, first-op fix rate %.1f%% (paper 75%%)\n",
				f.Under10*100, f.Under300*100, f.FirstOpFixRate*100)
			fmt.Print(analysis.RenderCDF("auto-fix CDF", "s", f.CDF, 10))
		},
		"fig11": func() { fmt.Print(analysis.RenderRanking(pass.Figure11(100))) },
		"fig12": func() {
			g := pass.ByISP()
			fmt.Print(analysis.RenderGroups("ISP discrepancy (Figures 12/13)", g[:]))
		},
		"fig14": func() {
			fmt.Println("Failure prevalence by BS RAT (failures per 1000 connected hours):")
			for _, r := range pass.Figure14() {
				fmt.Printf("  %v: %.2f (events %d, dwell %.0f h, %d BSes)\n", r.RAT, r.Prevalence, r.Events, r.DwellHours, r.BSes)
			}
		},
		"fig15": func() {
			fmt.Print(analysis.RenderLevels("Normalized prevalence by signal level (Figure 15)", pass.Figure15()))
		},
		"fig16": func() {
			fmt.Print(analysis.RenderLevels("4G (Figure 16)", pass.Figure16(telephony.RAT4G)))
			fmt.Print(analysis.RenderLevels("5G (Figure 16)", pass.Figure16(telephony.RAT5G)))
		},
		"fig17": func() {
			for _, pair := range analysis.Figure17Pairs() {
				fmt.Print(analysis.RenderHeatmap(pass.Figure17(pair[0], pair[1])))
			}
		},
		"timeseries": func() {
			series := analysis.TimeSeries(in, 7*24*time.Hour)
			fmt.Printf("Weekly failure counts (spike index %.1f):\n", analysis.SpikeIndex(series))
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
				fmt.Printf("  week %2d |%-40s| %d\n", i+1, strings.Repeat("#", bars), b.Total)
			}
		},
		"claims": func() {
			fmt.Print(analysis.RenderClaims(pass.Claims()))
		},
		"regions": func() {
			fmt.Print(analysis.RenderRegions(pass.ByRegion()))
		},
		"guidelines": func() {
			fmt.Print(analysis.RenderGuidelines(pass.Guidelines()))
		},
		"correlation": func() {
			fmt.Print(analysis.RenderCorrelation(pass.HardwareCorrelation(core.Catalogue())))
		},
		"overhead": func() {
			o := res.Overhead
			rep := analysis.CheckOverhead(o.MeanCPUUtilization, o.MaxCPUUtilization, o.MaxMemoryBytes, o.MaxStorageBytes, o.MaxNetworkBytes, 8)
			fmt.Printf("Overhead: mean CPU %.3f%% max %.3f%%, mem %d B, storage %d B, net %d B; typical budget ok=%v worst ok=%v\n",
				rep.MeanCPUUtilization*100, rep.MaxCPUUtilization*100, rep.MaxMemoryBytes, rep.MaxStorageBytes, rep.MaxNetworkBytes,
				rep.WithinTypicalBudget, rep.WithinWorstBudget)
		},
	}, []string{"table1", "table2", "correlation", "timeseries", "guidelines", "regions", "claims", "fig3", "fig4", "fig6", "fig8", "fig10", "fig11", "fig12", "fig14", "fig15", "fig16", "fig17", "overhead"}
}

// writeOut writes rendered bytes to a file, or stdout for "-".
func writeOut(path string, b []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
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
