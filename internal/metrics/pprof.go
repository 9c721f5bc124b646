package metrics

import (
	"net/http"
	"net/http/pprof"
)

// RegisterPprof attaches the net/http/pprof profiling handlers to mux
// under /debug/pprof/. Opt-in from the collector via its -pprof flag:
// profiling endpoints expose stack and heap contents, so they stay off
// unless asked for.
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
