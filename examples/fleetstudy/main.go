// Fleet study with a live collection pipeline: starts a TCP trace
// collector (the "backend server"), runs the measurement fleet with each
// shard uploading its compressed event batches over the network, and
// analyzes the centrally collected dataset — the full §2.2/§2.3
// architecture in one process. The collector keeps what it admits in a
// segment store, which the offline tools read as a run directory.
//
//	go run ./examples/fleetstudy
package main

import (
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/simnet"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)

	// Backend: the centralized dataset, its durable segment store and its
	// TCP collector. The store replays what an earlier run of this example
	// left behind, so a second run re-acks every batch as a duplicate
	// instead of storing it twice.
	const storeDir = "fleetstudy-store"
	backend := trace.NewDataset()
	store, err := trace.OpenSegStore(storeDir, trace.SegStoreOptions{}, trace.ReplayInto(backend))
	if err != nil {
		log.Fatal(err)
	}
	collector, err := trace.NewCollectorWith("127.0.0.1:0", backend, trace.CollectorOptions{Store: store})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collector listening on %s (%d events replayed from %s)\n", collector.Addr(), backend.Len(), storeDir)

	// Fleet: every worker shard batches, compresses and uploads its
	// devices' events when "WiFi" is available, like Android-MOD.
	scenario := cellrel.Scenario{
		Seed:       8,
		NumDevices: 1500,
		UploadAddr: collector.Addr(),
	}
	res, err := cellrel.Run(scenario)
	if err != nil {
		log.Fatal(err)
	}
	if err := collector.Drain(5 * time.Second); err != nil {
		log.Fatal(err)
	}
	batches, rx := collector.Stats()
	fmt.Printf("fleet done: %d devices, %d batches stored, %d re-acked as duplicates (~%d bytes), backend holds %d events\n",
		res.Population.Total, batches, collector.DedupHits(), rx, backend.Len())

	// Analysis runs on the *collected* dataset, proving the pipeline
	// delivered everything.
	pass := analysis.NewPass(analysis.Input{
		Dataset:     backend,
		Population:  res.Population,
		Transitions: &res.Transitions,
		Dwell:       &res.Dwell,
		Network:     res.Network,
	})
	groups := pass.ByISP()
	fmt.Println("\nISP landscape from the collected dataset (Figures 12/13):")
	for _, g := range groups {
		fmt.Printf("  %-6s prevalence %5.1f%%, frequency %5.1f (devices %d)\n",
			g.Name, g.Prevalence*100, g.Frequency, g.Devices)
	}
	b := groups[simnet.ISPB]
	a := groups[simnet.ISPA]
	c := groups[simnet.ISPC]
	fmt.Printf("ordering B > A > C holds: %v (paper: 27.1%% / 20.1%% / 14.7%%)\n",
		b.Prevalence > a.Prevalence && a.Prevalence > c.Prevalence)

	rank := pass.Figure11(50)
	fmt.Printf("\nBS failure ranking (Figure 11): %s", analysis.RenderRanking(rank))

	// The store is what cellanalyze reads: seal it.
	if err := store.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstored %d segments under %s; analyze them with:\n  go run ./cmd/cellanalyze -in %s -figures-json -\n",
		len(store.Segments()), storeDir, storeDir)
}
