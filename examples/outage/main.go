// Outage injection: schedule a week-long infrastructure failure in the
// urban region mid-study — a one-rule fault campaign, a stall storm on
// every phone camped in the region — and watch it surface as a correlated
// spike in the weekly failure time series: the §3.1 "BSes long neglected
// and in disrepair" scenario, made reproducible.
//
//	go run ./examples/outage
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/fleet"
	"repro/internal/geo"
)

func main() {
	log.SetFlags(0)

	urban := geo.Urban
	scenario := fleet.Scenario{
		Seed:       21,
		NumDevices: 1200,
		Faults: &faultinject.Campaign{
			Name: "urban-outage",
			Rules: []faultinject.Rule{{
				Name:      "urban-bs-disrepair",
				Class:     faultinject.ClassStallStorm,
				Sel:       faultinject.Selector{Region: &urban},
				Start:     100 * 24 * time.Hour, // ~week 15
				Window:    7 * 24 * time.Hour,
				Intensity: 5, // extra stall episodes per exposed phone
			}},
		},
	}
	res, err := fleet.Run(scenario)
	if err != nil {
		log.Fatal(err)
	}
	weekly := analysis.NewTimeSeries(7 * 24 * time.Hour)
	res.Dataset.Each(weekly.Visit)
	series := weekly.Buckets()
	fmt.Printf("weekly failures with an injected urban outage (spike index %.1f):\n",
		analysis.SpikeIndex(series))
	maxT := 0
	for _, b := range series {
		if b.Total > maxT {
			maxT = b.Total
		}
	}
	for i, b := range series {
		bars := 0
		if maxT > 0 {
			bars = b.Total * 44 / maxT
		}
		marker := ""
		if b.Start >= 98*24*time.Hour && b.Start < 108*24*time.Hour {
			marker = "  <- outage window"
		}
		fmt.Printf("week %2d |%-44s| %5d%s\n", i+1, strings.Repeat("#", bars), b.Total, marker)
	}

	regions := analysis.NewPass(analysis.FromResult(res)).ByRegion()
	fmt.Println("\nper-region landscape:")
	for _, r := range regions {
		fmt.Printf("  %-13s events %6d  mean duration %8.1fs  max %v\n",
			r.Region, r.Events, r.MeanDuration.Seconds(), r.MaxDuration.Round(time.Second))
	}
	fmt.Println("\n(remote failures are few but last orders of magnitude longer — the")
	fmt.Println(" paper's 25.5-hour maximum comes from exactly this neglected tail)")
}
