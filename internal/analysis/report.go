package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/failure"
	"repro/internal/telephony"
)

// PaperReference holds the published value a measured metric is compared
// against.
type PaperReference struct {
	Metric   string
	Paper    string
	Measured string
}

// Report is the complete paper-vs-measured reproduction report: every
// experiment's key numbers plus the rendered sections, ready to print as
// markdown.
type Report struct {
	Devices     int
	Months      float64
	Seed        int64
	GeneralRows []PaperReference
	Sections    []ReportSection
}

// ReportSection is one experiment's block.
type ReportSection struct {
	Title string
	Intro string
	Rows  []PaperReference // empty for free-form sections
	Body  string           // preformatted block (tables, CDFs, heatmaps)
}

// ReportConfig identifies the runs being compared.
type ReportConfig struct {
	Devices int
	Months  float64
	Seed    int64
	// Catalogue is the Table-1 model list.
	Catalogue []ModelCatalogueEntry
	// TIMP carries the recovery-optimization outcome, if available.
	TIMP *TIMPSummary
	// Overhead carries the vanilla run's monitoring overhead.
	Overhead *OverheadReport
	// FPClasses is the vanilla monitor's false-positive histogram and the
	// recorded-event count.
	FPClasses map[string]int
	Recorded  int
}

// TIMPSummary carries the §4.2 optimization outcome for the report.
type TIMPSummary struct {
	Probations  [3]float64
	Cost        float64
	DefaultCost float64
	Improvement float64
	Samples     int
}

// BuildReport assembles the full reproduction report from a vanilla run's
// pass and, for the enhancement section, a patched run's (nil leaves the
// section out).
func BuildReport(vanilla, patched *Pass, cfg ReportConfig) *Report {
	if patched == nil {
		return buildReportFrom(vanilla, nil, cfg) // a nil source, not a nil *Pass inside one
	}
	return buildReportFrom(vanilla, patched, cfg)
}

func buildReportFrom(vanilla, patched source, cfg ReportConfig) *Report {
	r := &Report{Devices: cfg.Devices, Months: cfg.Months, Seed: cfg.Seed}

	f3 := vanilla.Figure3()
	f4 := vanilla.Figure4()
	r.GeneralRows = []PaperReference{
		{"Mean failures per phone", "33", fmt.Sprintf("%.1f", f3.Mean)},
		{"Data_Setup_Error per phone", "16", fmt.Sprintf("%.1f", f3.MeanPerKind[failure.DataSetupError])},
		{"Data_Stall per phone", "14", fmt.Sprintf("%.1f", f3.MeanPerKind[failure.DataStall])},
		{"Out_of_Service per phone", "3", fmt.Sprintf("%.1f", f3.MeanPerKind[failure.OutOfService])},
		{"Phones with no failures", "77%", fmt.Sprintf("%.1f%%", f3.ZeroShare*100)},
		{"Phones with no Out_of_Service", "95%", fmt.Sprintf("%.1f%%", f3.OOSFreeShare*100)},
		{"Max failures on one phone", "198,228", fmt.Sprintf("%.0f", f3.Max)},
		{"Failures under 30 s", "70.8%", fmt.Sprintf("%.1f%%", f4.Under30*100)},
		{"Mean failure duration", "188 s", fmt.Sprintf("%.1f s", f4.Mean.Seconds())},
		{"Max failure duration", "91,770 s", fmt.Sprintf("%.0f s", f4.Max.Seconds())},
		{"Data_Stall share of total duration", "94%", fmt.Sprintf("%.1f%%", f4.StallShareOfDuration*100)},
	}

	table1 := vanilla.Table1(cfg.Catalogue)
	r.addSection("Table 1 — per-model prevalence and frequency", "",
		nil, RenderTable1(table1))
	r.addSection("Table 2 — top Data_Setup_Error codes", "",
		nil, RenderTable2(vanilla.Table2(10)))
	r.addSection("Hardware-configuration correlation (§3.2)",
		"Better hardware does not relieve failures; 5G capability and Android version drive them.",
		nil, RenderCorrelation(hardwareCorrelationFromRows(table1, cfg.Catalogue)))

	f5g, fn5g := vanilla.By5G()
	a9, a10 := vanilla.ByAndroidVersion()
	r.addSection("Figures 6–9 — 5G and Android-version landscape",
		"Paper: 5G phones fail more than non-5G; Android 10 more than Android 9.",
		groupRows([]GroupStats{f5g, fn5g, a9, a10}), "")

	f10 := vanilla.Figure10()
	r.addSection("Figure 10 — Data_Stall self-recovery", "", []PaperReference{
		{"Fixed within 10 s", "60%", fmt.Sprintf("%.1f%%", f10.Under10*100)},
		{"Fixed within 300 s", ">80%", fmt.Sprintf("%.1f%%", f10.Under300*100)},
		{"First-stage cleanup fix rate", "75%", fmt.Sprintf("%.1f%%", f10.FirstOpFixRate*100)},
	}, "")

	f11 := vanilla.Figure11(100)
	r.addSection("Figure 11 — BS ranking by failures",
		"At simulation scale the fit is steeper and the median higher than the paper's 5.3M-BS census; the Zipf shape holds.",
		[]PaperReference{
			{"Zipf a", "0.82", fmt.Sprintf("%.2f", f11.Fit.A)},
			{"Zipf b", "17.12", fmt.Sprintf("%.2f", f11.Fit.B)},
			{"Median failures per BS", "1", fmt.Sprintf("%.0f", f11.Median)},
			{"Mean failures per BS", "444", fmt.Sprintf("%.1f", f11.Mean)},
			{"Max failures per BS", "8,941,860", fmt.Sprintf("%d", f11.Max)},
			{"Top-100 BSes in crowded areas", "mostly", fmt.Sprintf("%.0f%%", f11.TopUrbanShare*100)},
		}, "")

	isps := vanilla.ByISP()
	paperISP := []string{"20.1%", "27.1%", "14.7%"}
	var ispRows []PaperReference
	for i, g := range isps {
		ispRows = append(ispRows, PaperReference{
			Metric:   g.Name + " prevalence",
			Paper:    paperISP[i],
			Measured: fmt.Sprintf("%.1f%% (frequency %.1f)", g.Prevalence*100, g.Frequency),
		})
	}
	r.addSection("Figures 12/13 — ISP discrepancy", "Ordering B > A > C.", ispRows, "")

	var ratRows []PaperReference
	for _, row := range vanilla.Figure14() {
		ratRows = append(ratRows, PaperReference{
			Metric:   row.RAT.String() + " failure rate",
			Paper:    ratOrderNote(row.RAT),
			Measured: fmt.Sprintf("%.2f per 1000 h (%d BSes)", row.Prevalence, row.BSes),
		})
	}
	r.addSection("Figure 14 — failure prevalence by BS RAT",
		"Paper ordering: 3G lowest (idle), 5G highest.", ratRows, "")

	r.addSection("Figure 15 — normalized prevalence by signal level",
		"Levels 0→4 decrease monotonically; level 5 jumps above levels 1–4 (transport hubs).",
		nil, RenderLevels("all RATs", vanilla.Figure15()))
	r.addSection("Figure 16 — per-RAT signal levels", "", nil,
		RenderLevels("4G", vanilla.Figure16(telephony.RAT4G))+
			RenderLevels("5G", vanilla.Figure16(telephony.RAT5G)))

	var worstRows []PaperReference
	for _, pair := range Figure17Pairs() {
		p := figure17(vanilla.input(), pair[0], pair[1])
		wi, wj, worst := -1, -1, 0.0
		for i := 0; i < telephony.NumSignalLevels; i++ {
			for j := 0; j < telephony.NumSignalLevels; j++ {
				if p.Observed[i][j] && p.Increase[i][j] > worst {
					worst, wi, wj = p.Increase[i][j], i, j
				}
			}
		}
		measured := "(unobserved)"
		if wi >= 0 {
			measured = fmt.Sprintf("level-%d → level-%d at %+.3f", wi, wj, worst)
		}
		worstRows = append(worstRows, PaperReference{
			Metric:   fmt.Sprintf("%v→%v worst cell", pair[0], pair[1]),
			Paper:    "into level-0",
			Measured: measured,
		})
	}
	r.addSection("Figure 17 — RAT-transition failure increases",
		"Paper's 17f: 4G level-1..4 → 5G level-0 raise prevalence by up to +0.37; the dark cells sit in the level-0 column.",
		worstRows, "")

	if cfg.TIMP != nil {
		t := cfg.TIMP
		r.addSection("TIMP recovery optimization (Figure 18, Eq. 1)", "", []PaperReference{
			{"Optimal probations", "21 s, 6 s, 16 s", fmt.Sprintf("%.1f s, %.1f s, %.1f s", t.Probations[0], t.Probations[1], t.Probations[2])},
			{"Expected recovery (optimized)", "27.8 s", fmt.Sprintf("%.1f s", t.Cost)},
			{"Expected recovery (60 s default)", "38 s", fmt.Sprintf("%.1f s", t.DefaultCost)},
			{"Improvement", "26.8%", fmt.Sprintf("%.1f%%", t.Improvement*100)},
			{"Self-recovery samples", "2.3B events", fmt.Sprintf("%d", t.Samples)},
		}, "")
	}

	if patched != nil {
		rep := compareEnhancementFrom(vanilla, patched)
		rows := []PaperReference{
			{"5G failure frequency change", "−40.3%", fmt.Sprintf("%+.1f%%", rep.FiveGFrequencyChange*100)},
			{"5G failure prevalence change", "−10%", fmt.Sprintf("%+.1f%%", rep.FiveGPrevalenceChange*100)},
		}
		for _, kd := range rep.ByKind {
			rows = append(rows, PaperReference{
				Metric:   fmt.Sprintf("%v frequency change (5G)", kd.Kind),
				Paper:    "see §4.3",
				Measured: fmt.Sprintf("%+.1f%%", kd.FrequencyChange*100),
			})
		}
		rows = append(rows,
			PaperReference{"Mean Data_Stall duration change", "−38%", fmt.Sprintf("%+.1f%%", rep.StallDurationChange*100)},
			PaperReference{"Total failure duration change", "−36%", fmt.Sprintf("%+.1f%%", rep.TotalDurationChange*100)},
			PaperReference{"Median failure duration", "6 s → 2 s",
				fmt.Sprintf("%.1f s → %.1f s", rep.MedianDurationBefore.Seconds(), rep.MedianDurationAfter.Seconds())},
		)
		r.addSection("Figures 19–21 — deployed enhancements (§4.3)", "", rows, "")
	}

	if cfg.Overhead != nil {
		o := cfg.Overhead
		r.addSection("Monitoring overhead (§2.2)", "", []PaperReference{
			{"Mean CPU within failures", "<2%", fmt.Sprintf("%.3f%% (ok=%v)", o.MeanCPUUtilization*100, o.WithinTypicalBudget)},
			{"Worst CPU", "<8%", fmt.Sprintf("%.3f%%", o.MaxCPUUtilization*100)},
			{"Worst memory", "<2 MB", fmt.Sprintf("%d B", o.MaxMemoryBytes)},
			{"Worst storage", "<20 MB", fmt.Sprintf("%d B", o.MaxStorageBytes)},
			{"Worst network over the window", "~160 MB", fmt.Sprintf("%d B", o.MaxNetworkBytes)},
		}, "")
	}

	if gs := guidelinesFrom(vanilla); len(gs) > 0 {
		r.addSection("Guidelines derived from the data (§4.1)", "", nil, RenderGuidelines(gs))
	}

	if len(cfg.FPClasses) > 0 {
		type kv struct {
			k string
			v int
		}
		var list []kv
		for k, v := range cfg.FPClasses {
			list = append(list, kv{k, v})
		}
		sort.Slice(list, func(i, j int) bool { return list[i].v > list[j].v })
		var rows []PaperReference
		for _, e := range list {
			rows = append(rows, PaperReference{Metric: e.k, Paper: "filtered", Measured: fmt.Sprintf("%d", e.v)})
		}
		rows = append(rows, PaperReference{Metric: "recorded (true failures)", Paper: "-", Measured: fmt.Sprintf("%d", cfg.Recorded)})
		r.addSection("False-positive filtering (§2.2)", "", rows, "")
	}
	return r
}

func (r *Report) addSection(title, intro string, rows []PaperReference, body string) {
	r.Sections = append(r.Sections, ReportSection{Title: title, Intro: intro, Rows: rows, Body: body})
}

func groupRows(groups []GroupStats) []PaperReference {
	var rows []PaperReference
	for _, g := range groups {
		rows = append(rows, PaperReference{
			Metric:   g.Name,
			Paper:    "-",
			Measured: fmt.Sprintf("prevalence %.1f%%, frequency %.1f", g.Prevalence*100, g.Frequency),
		})
	}
	return rows
}

func ratOrderNote(rat telephony.RAT) string {
	switch rat {
	case telephony.RAT3G:
		return "lowest (idle)"
	case telephony.RAT5G:
		return "highest"
	default:
		return "mid"
	}
}

// Markdown renders the report.
func (r *Report) Markdown(elapsed time.Duration) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# EXPERIMENTS — paper vs. measured\n\n")
	fmt.Fprintf(&b, "Reproduction of *A Nationwide Study on Cellular Reliability* (SIGCOMM 2021).\n")
	fmt.Fprintf(&b, "Fleet: %d simulated devices over %.0f months (seed %d); the paper measured 70M real phones.\n",
		r.Devices, r.Months, r.Seed)
	fmt.Fprintf(&b, "Absolute counts scale with fleet size; distribution shapes, orderings and\nrelative improvements are the reproduction targets.\n\n")

	fmt.Fprintf(&b, "## General statistics (§3.1, Figures 3 and 4)\n\n")
	writeRows(&b, r.GeneralRows)
	fmt.Fprintf(&b, "\nNote: our mean duration sits below the paper's 188 s because the modeled\nrecovery mechanism caps most stalls; the skew (most failures short, a\nmulti-hour tail from neglected remote BSes) is preserved.\n\n")

	for _, s := range r.Sections {
		fmt.Fprintf(&b, "## %s\n\n", s.Title)
		if s.Intro != "" {
			fmt.Fprintf(&b, "%s\n\n", s.Intro)
		}
		if len(s.Rows) > 0 {
			writeRows(&b, s.Rows)
			fmt.Fprintln(&b)
		}
		if s.Body != "" {
			fmt.Fprintf(&b, "```\n%s```\n\n", s.Body)
		}
	}
	fmt.Fprintf(&b, "---\nGenerated in %v.\n", elapsed.Round(time.Millisecond))
	return b.String()
}

func writeRows(b *strings.Builder, rows []PaperReference) {
	fmt.Fprintf(b, "| Metric | Paper | Measured |\n|---|---|---|\n")
	for _, row := range rows {
		fmt.Fprintf(b, "| %s | %s | %s |\n", row.Metric, row.Paper, row.Measured)
	}
}
