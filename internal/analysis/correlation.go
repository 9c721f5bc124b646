package analysis

import (
	"fmt"
	"strings"

	"repro/internal/stats"
)

// FeatureCorrelation is one row of the §3.2 hardware-configuration
// analysis: the Pearson correlation of a per-model feature with the
// measured prevalence and frequency across the 34 models.
type FeatureCorrelation struct {
	Feature        string  `json:"feature"`
	WithPrevalence float64 `json:"with_prevalence"`
	WithFrequency  float64 `json:"with_frequency"`
}

// hardwareCorrelationFromRows reproduces the paper's §3.2 examination from
// an extracted Table 1: "we examine the correlation between each feature
// and the prevalence/frequency of cellular failures, finding that two
// features, i.e., 5G capability and Android version, have significant
// influence" — while better CPU, memory and storage do not relieve the
// situation (they correlate positively too, because high-end phones carry
// 5G modems and Android 10).
func hardwareCorrelationFromRows(rows []ModelRow, catalogue []ModelCatalogueEntry) []FeatureCorrelation {
	byID := map[int]ModelRow{}
	for _, r := range rows {
		byID[r.ModelID] = r
	}
	var prev, freq []float64
	features := map[string][]float64{
		"cpu_ghz": nil, "memory_gb": nil, "storage_gb": nil,
		"5g_capable": nil, "android10": nil,
	}
	for _, m := range catalogue {
		r, ok := byID[m.ID]
		if !ok || r.Devices < 5 {
			continue // too few devices for a usable estimate
		}
		prev = append(prev, r.Prevalence)
		freq = append(freq, r.Frequency)
		features["cpu_ghz"] = append(features["cpu_ghz"], m.CPUGHz)
		features["memory_gb"] = append(features["memory_gb"], float64(m.MemoryGB))
		features["storage_gb"] = append(features["storage_gb"], float64(m.StorageGB))
		features["5g_capable"] = append(features["5g_capable"], boolTo01(m.FiveG))
		features["android10"] = append(features["android10"], boolTo01(m.Android >= 10))
	}
	order := []string{"cpu_ghz", "memory_gb", "storage_gb", "5g_capable", "android10"}
	out := make([]FeatureCorrelation, 0, len(order))
	for _, name := range order {
		cp, _ := stats.Pearson(features[name], prev)
		cf, _ := stats.Pearson(features[name], freq)
		out = append(out, FeatureCorrelation{Feature: name, WithPrevalence: cp, WithFrequency: cf})
	}
	return out
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// RenderCorrelation prints the feature-correlation table.
func RenderCorrelation(rows []FeatureCorrelation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %14s\n", "Feature", "r(prevalence)", "r(frequency)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %+14.2f %+14.2f\n", r.Feature, r.WithPrevalence, r.WithFrequency)
	}
	return b.String()
}
