// RAT-policy comparison: the paper's motivating scenario. A 5G phone
// repeatedly chooses between a strong 4G cell and a weak 5G cell; Android
// 10's blind 5G preference racks up failures while the paper's
// stability-compatible policy avoids them. The example then runs both
// policies fleet-wide and reports the Figure 19/20 effect.
//
//	go run ./examples/ratpolicy
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/android"
	"repro/internal/simnet"
	"repro/internal/telephony"
)

func main() {
	log.SetFlags(0)

	// --- Micro view: one decision, three policies -----------------------
	fmt.Println("One decision: strong 4G (level-4) vs weak 5G (level-0):")
	options := []android.RATOption{
		{RAT: telephony.RAT4G, Level: telephony.Level4},
		{RAT: telephony.RAT5G, Level: telephony.Level0},
	}
	current := options[0] // currently camped on the strong 4G cell
	risk := func(o android.RATOption) float64 {
		h := simnet.LevelHazard(o.Level)
		if o.RAT == telephony.RAT5G {
			h *= simnet.ContentionFactor[telephony.RAT5G]
		}
		return h
	}
	policies := []android.RATPolicy{
		android.Android9Policy{},
		android.Android10Policy{},
		android.StabilityCompatiblePolicy{Risk: risk},
	}
	for _, p := range policies {
		pick := options[p.Select(&current, options)]
		fmt.Printf("  %-22s -> %v %v (failure risk %.2f)\n", p.Name(), pick.RAT, pick.Level, risk(pick))
	}
	fmt.Println("  (Android 10 takes the weak 5G cell — the paper's root cause for 5G-phone failures)")

	// --- Dual connectivity ----------------------------------------------
	dual := android.DualConnectivity{Enabled: true}
	fmt.Printf("\n4G/5G dual connectivity shortens the transition window: 8s -> %v\n",
		dual.TransitionWindow(8e9, telephony.RAT4G, telephony.RAT5G))

	// --- Fleet view: Figures 19/20 --------------------------------------
	fmt.Println("\nFleet A/B (vanilla vs stability-compatible + dual connectivity + TIMP):")
	m, err := cellrel.Study{Scenario: cellrel.Scenario{Seed: 11, NumDevices: 2000}}.Measure()
	if err != nil {
		log.Fatal(err)
	}
	enh, err := cellrel.EvaluateEnhancements(m, cellrel.PaperTIMPTrigger)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cellrel.RenderEnhancement(enh.Report))

	vg, _ := m.Pass.By5G()
	pg, _ := enh.PatchedPass.By5G()
	fmt.Printf("\n5G phones: %.1f -> %.1f failures per device over the window\n",
		vg.Frequency, pg.Frequency)
}
