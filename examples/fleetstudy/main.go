// Fleet study with a live collection pipeline: starts a TCP trace
// collector (the "backend server"), runs the measurement fleet with each
// device's events uploaded as one raw v3 frame over the network, and
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
	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/trace/ring"
)

func main() {
	log.SetFlags(0)

	// Backend: one ingest node — the centralized dataset, its durable
	// segment store and its TCP collector. The store replays what an
	// earlier run of this example left behind, so a second run re-acks
	// every batch as a duplicate instead of storing it twice. A store an
	// older build wrote (frames tagged 0xA3 to 0xA5) fails the open:
	// delete fleetstudy-store/ before running this build.
	const storeDir = "fleetstudy-store"
	backend, err := node.Start(node.Options{Fleet: ring.FleetOptions{Dir: storeDir}})
	if err != nil {
		log.Fatal(err)
	}
	collected, collector := backend.Dataset(), backend.Fleet()
	fmt.Printf("collector listening on %s (%d events replayed from %s)\n", backend.Addr(), collected.Len(), storeDir)

	// Fleet: every worker uploads each device's events as one raw v3
	// frame when the device finishes, like Android-MOD.
	res, err := cellrel.Run(cellrel.Scenario{Seed: 8, NumDevices: 1500, UploadAddr: backend.Addr()})
	if err != nil {
		log.Fatal(err)
	}
	// Shutting the node down drains the uploads and seals the store: what
	// cellanalyze reads.
	if err := backend.Shutdown(5 * time.Second); err != nil {
		log.Fatal(err)
	}
	batches, rx := collector.Stats()
	fmt.Printf("fleet done: %d devices, %d batches stored, %d re-acked as duplicates (~%d bytes), backend holds %d events\n",
		res.Population.Total, batches, collector.DedupHits(), rx, collected.Len())

	// Analysis runs on the *collected* dataset, proving the pipeline
	// delivered everything.
	in := analysis.FromResult(res)
	in.Dataset = collected
	pass := analysis.NewPass(in)
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

	fmt.Printf("\nstored %d segments under %s; analyze them with:\n  go run ./cmd/cellanalyze -in %s -figures-json -\n",
		len(collector.Sources()[0].Store.Segments()), storeDir, storeDir)
}
