// Package device holds the studied phone population: the 34 hardware
// models of Table 1 with their measured reliability characteristics, and
// the per-device failure-intensity sampling that reproduces the paper's
// prevalence ("fraction of devices with at least one failure") and
// frequency ("average number of failures per phone") for each model.
package device

import "fmt"

// Model is one row of Table 1. Prevalence and Frequency are the paper's
// measured values; the fleet simulator uses them as generator parameters
// and the analysis pipeline recomputes both from simulated events — the
// round trip validates the whole pipeline.
type Model struct {
	ID        int // 1-based, ordered low-end to high-end
	CPUGHz    float64
	MemoryGB  int
	StorageGB int
	FiveG     bool
	Android   int     // major version: 9 or 10
	UserShare float64 // fraction of the fleet using this model
	// Prevalence is the fraction of this model's devices with >=1 failure
	// during the 8-month study.
	Prevalence float64
	// Frequency is the mean number of failures per device of this model.
	Frequency float64
}

func (m Model) String() string {
	g := "-"
	if m.FiveG {
		g = "5G"
	}
	return fmt.Sprintf("model-%02d(%.2fGHz/%dGB/%dGB/%s/Android%d)",
		m.ID, m.CPUGHz, m.MemoryGB, m.StorageGB, g, m.Android)
}

// catalogue is Table 1 verbatim (user percentages renormalized to sum 1).
var catalogue = []Model{
	{1, 1.80, 2, 16, false, 10, 0.0271, 0.28, 35.9},
	{2, 1.95, 2, 16, false, 9, 0.0302, 0.13, 23.8},
	{3, 2.00, 2, 16, false, 9, 0.0731, 0.10, 13.8},
	{4, 2.00, 3, 32, false, 9, 0.0390, 0.19, 22.4},
	{5, 2.00, 3, 32, false, 9, 0.0285, 0.21, 28.2},
	{6, 2.00, 3, 32, false, 10, 0.0433, 0.04, 5.3},
	{7, 2.00, 3, 32, false, 10, 0.0144, 0.05, 6.4},
	{8, 2.00, 3, 32, false, 9, 0.0407, 0.0015, 2.3},
	{9, 2.00, 3, 32, false, 10, 0.0547, 0.02, 2.6},
	{10, 2.20, 4, 32, false, 9, 0.0578, 0.27, 36.8},
	{11, 1.80, 4, 64, false, 10, 0.0118, 0.25, 28.5},
	{12, 2.00, 4, 64, false, 10, 0.0144, 0.33, 43.5},
	{13, 2.05, 6, 64, false, 10, 0.0539, 0.26, 18.7},
	{14, 2.20, 6, 64, false, 9, 0.0298, 0.15, 17.9},
	{15, 2.20, 4, 128, false, 10, 0.0398, 0.25, 26.7},
	{16, 2.20, 4, 128, false, 10, 0.0302, 0.19, 28.0},
	{17, 2.20, 6, 64, false, 10, 0.0109, 0.28, 48.4},
	{18, 2.20, 6, 64, false, 10, 0.0026, 0.13, 38.8},
	{19, 2.20, 6, 64, false, 10, 0.0131, 0.24, 44.8},
	{20, 2.20, 6, 64, false, 10, 0.0057, 0.21, 33.0},
	{21, 2.20, 6, 64, false, 10, 0.0280, 0.36, 46.6},
	{22, 2.20, 6, 128, false, 9, 0.0044, 0.38, 61.1},
	{23, 2.40, 6, 64, true, 10, 0.0084, 0.44, 49.6},
	{24, 2.40, 6, 128, true, 10, 0.0325, 0.37, 38.0},
	{25, 2.45, 6, 64, false, 9, 0.0499, 0.14, 19.6},
	{26, 2.45, 6, 64, false, 9, 0.0215, 0.17, 24.6},
	{27, 2.80, 6, 64, false, 10, 0.0184, 0.22, 54.2},
	{28, 2.80, 6, 64, false, 10, 0.0714, 0.28, 58.1},
	{29, 2.80, 6, 64, false, 10, 0.0131, 0.30, 65.1},
	{30, 2.80, 6, 128, false, 10, 0.0101, 0.30, 90.2},
	{31, 2.84, 6, 64, false, 10, 0.0188, 0.28, 61.7},
	{32, 2.84, 6, 64, false, 10, 0.0363, 0.29, 57.8},
	{33, 2.84, 8, 128, true, 10, 0.0478, 0.32, 70.9},
	{34, 2.84, 8, 256, true, 10, 0.0184, 0.25, 79.3},
}

// Models returns the 34-model catalogue with user shares normalized to
// sum exactly 1.
func Models() []Model {
	out := make([]Model, len(catalogue))
	copy(out, catalogue)
	total := 0.0
	for _, m := range out {
		total += m.UserShare
	}
	for i := range out {
		out[i].UserShare /= total
	}
	return out
}

// ByID returns the model with the given 1-based ID. A cross-package test
// helper: the fleet's tests build a phone of a chosen model with it.
func ByID(id int) (Model, bool) {
	if id < 1 || id > len(catalogue) {
		return Model{}, false
	}
	m := Models()[id-1]
	return m, true
}

// NumModels is the catalogue size.
const NumModels = 34

// WeightedPrevalence returns the user-share-weighted mean prevalence
// (the paper's overall 23%): a calibration accessor, which tests check
// the catalogue and the fleet against.
func WeightedPrevalence() float64 {
	sum := 0.0
	for _, m := range Models() {
		sum += m.UserShare * m.Prevalence
	}
	return sum
}

// WeightedFrequency returns the user-share-weighted mean failures per
// phone (the paper's overall 33): a calibration accessor, which tests
// check the catalogue against.
func WeightedFrequency() float64 {
	sum := 0.0
	for _, m := range Models() {
		sum += m.UserShare * m.Frequency
	}
	return sum
}
