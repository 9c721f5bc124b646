// Quickstart: run a small measurement fleet, print the headline statistics
// of the paper's §3.1, and show the top failure causes.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/analysis"
)

func main() {
	log.SetFlags(0)

	// A 1000-device fleet over the paper's 8-month window. The simulator
	// stands in for the 70M-phone Android-MOD deployment; every device
	// runs the real connection state machine, stall detector, prober and
	// recovery engine.
	study := cellrel.Study{Scenario: cellrel.Scenario{Seed: 42, NumDevices: 1000}}
	m, err := study.Measure()
	if err != nil {
		log.Fatal(err)
	}

	// Measure swept the dataset once; every figure below reads that pass.
	f3 := m.Pass.Figure3()
	f4 := m.Pass.Figure4()
	fmt.Printf("collected %d cellular failures from %d devices\n",
		m.Fleet.Dataset.Len(), m.Fleet.Population.Total)
	fmt.Printf("prevalence: %.1f%% of phones had at least one failure (paper: 23%%)\n",
		(1-f3.ZeroShare)*100)
	fmt.Printf("frequency:  %.1f failures per phone (paper: 33)\n", f3.Mean)
	fmt.Printf("durations:  mean %v, %.1f%% under 30 s (paper: 70.8%%)\n",
		f4.Mean, f4.Under30*100)

	fmt.Println("\ntop Data_Setup_Error causes (Table 2):")
	fmt.Print(analysis.RenderTable2(m.Pass.Table2(5)))

	fmt.Println("\nmonitoring overhead (paper budget: <2% CPU within failures):")
	o := m.Fleet.Overhead
	fmt.Printf("  mean CPU %.4f%%, max storage %d B, max network %d B\n",
		o.MeanCPUUtilization*100, o.MaxStorageBytes, o.MaxNetworkBytes)

	fmt.Println("\nguidance derived from the data (§4.1):")
	fmt.Print(cellrel.RenderGuidelines(m.Pass.Guidelines()))
}
