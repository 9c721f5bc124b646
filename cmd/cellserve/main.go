// Command cellserve serves a finished run over HTTP: the JSON query API,
// the canonical figures/claims documents, and a minimal dashboard page —
// the centralized-analysis service a deployment would put in front of the
// collected dataset.
//
// It loads a run directory (cellsim -o, or a collector's -store-dir,
// opened read-only, so the collector may still be running), computes one
// analysis pass at startup and serves the precomputed figures. The
// live tier — uploads in, figures that move while devices are still
// uploading — is cmd/collector.
//
// The process also exports its runtime metrics (fleet, trace, analysis,
// and monitor families) at /metrics in Prometheus text exposition
// (append ?format=json for the JSON dump), and -pprof additionally
// mounts the net/http/pprof profiling handlers under /debug/pprof/.
//
// Usage:
//
//	cellserve -in run -listen 127.0.0.1:8080
//	curl localhost:8080/api/stats
//	curl localhost:8080/api/figures
//	curl localhost:8080/metrics
package main

import (
	"errors"
	"flag"
	"fmt"
	"html/template"
	"io"
	"log"
	"net/http"
	"os"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/trace"
)

var page = template.Must(template.New("index").Parse(`<!doctype html>
<title>cellrel dashboard</title>
<style>body{font-family:monospace;margin:2em}td,th{padding:2px 12px;text-align:right}</style>
<h1>cellrel — cellular reliability dashboard</h1>
<p>{{.Events}} failures from {{.Devices}} devices ({{.Prevalence}} prevalence, {{.Frequency}} failures/phone)</p>
<h2>By kind</h2>
<table><tr><th>kind</th><th>events</th></tr>
{{range .Kinds}}<tr><td>{{.Name}}</td><td>{{.N}}</td></tr>{{end}}</table>
<h2>By ISP</h2>
<table><tr><th>ISP</th><th>prevalence</th><th>frequency</th></tr>
{{range .ISPs}}<tr><td>{{.Name}}</td><td>{{printf "%.1f%%" .Prev}}</td><td>{{printf "%.1f" .Freq}}</td></tr>{{end}}</table>
<p>JSON API: <a href="/api/stats">/api/stats</a> · <a href="/api/by-model">/api/by-model</a> ·
<a href="/api/by-isp">/api/by-isp</a> · <a href="/api/events?limit=20">/api/events</a> ·
<a href="/api/digest">/api/digest</a> · <a href="/metrics">/metrics</a></p>
`))

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
		log.Fatalf("cellserve: %v", err)
	}
}

// run loads the run directory and serves it until the listener fails.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cellserve", flag.ContinueOnError)
	var (
		inPath    = fs.String("in", "run", "input run directory (cellsim -o, or a collector's -store-dir)")
		listen    = fs.String("listen", "127.0.0.1:8080", "listen address")
		withPprof = fs.Bool("pprof", false, "mount net/http/pprof handlers under /debug/pprof/")
	)
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}

	res, err := fleet.LoadResult(*inPath)
	if err != nil {
		return err
	}
	res.Dataset.ExposeSize()

	// One pass at startup; request handlers only render what it holds.
	pass := analysis.NewPass(analysis.FromResult(res))
	f3 := pass.Figure3()
	type kindRow struct {
		Name string
		N    int
	}
	// A kind has a duration row exactly when it has events.
	byKind := pass.DurationByKind()
	var kindRows []kindRow
	for k := failure.Kind(0); k < failure.NumKinds; k++ {
		if d, ok := byKind[k]; ok {
			kindRows = append(kindRows, kindRow{k.String(), d.CDF.N()})
		}
	}
	type ispRow struct {
		Name       string
		Prev, Freq float64
	}
	var ispRows []ispRow
	for _, g := range pass.ByISP() {
		ispRows = append(ispRows, ispRow{g.Name, g.Prevalence * 100, g.Frequency})
	}

	mux := http.NewServeMux()
	trace.NewQueryAPI(res.Dataset).Routes(mux)
	mux.Handle("/metrics", metrics.Handler())
	if *withPprof {
		metrics.RegisterPprof(mux)
	}

	// Canonical figure/claims documents, rendered once at startup — the
	// same bytes `cellanalyze -figures-json`/`-claims-json` writes.
	figuresJSON, err := pass.FiguresJSON(core.Catalogue())
	if err != nil {
		return fmt.Errorf("figures: %w", err)
	}
	claimsJSON, err := pass.ClaimsJSON()
	if err != nil {
		return fmt.Errorf("claims: %w", err)
	}
	serveRaw := func(b []byte) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
		}
	}
	mux.HandleFunc("/api/figures", serveRaw(figuresJSON))
	mux.HandleFunc("/api/claims", serveRaw(claimsJSON))
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		page.Execute(w, map[string]any{
			"Events":     res.Dataset.Len(),
			"Devices":    res.Population.Total,
			"Prevalence": fmt.Sprintf("%.1f%%", (1-f3.ZeroShare)*100),
			"Frequency":  fmt.Sprintf("%.1f", f3.Mean),
			"Kinds":      kindRows,
			"ISPs":       ispRows,
		})
	})
	fmt.Fprintf(out, "cellserve on http://%s (%s: %s)\n", *listen, *inPath, res.Provenance)
	return http.ListenAndServe(*listen, mux)
}
