package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
)

// DebugOptions configures the operational endpoints of DebugMux.
type DebugOptions struct {
	// Ready reports whether the process can serve traffic; nil means always
	// ready.  A non-nil error answers /readyz with 503 and the error text —
	// e.g. a corpus mid-publish or a catalog with an empty snapshot.
	Ready func() error
	// Degraded, when non-nil and returning non-empty, marks a ready instance
	// as impaired (e.g. quarantined shards): /readyz still answers 200 — the
	// instance should keep taking traffic — but the body reads
	// "ready (degraded): <reason>" so orchestration and humans can see it.
	Degraded func() string
	// Burning, when non-nil and returning non-empty, marks a ready instance
	// as burning its error budget too fast (see internal/slo): /readyz
	// answers 200 with "ready (slo-burning): <objectives>".  Degraded takes
	// precedence when both fire — a quarantined shard usually explains the
	// burn.
	Burning func() string
}

// DebugMux builds the operational mux served on the -debug-addr listener:
//
//	/debug/pprof/...  net/http/pprof profiles (CPU, heap, goroutine, trace)
//	/healthz          liveness — 200 as long as the process serves requests
//	/readyz           readiness — 200 when Ready() is nil, 503 otherwise
//	/buildinfo        module, version and VCS metadata from ReadBuildInfo
//
// The mux is intended for a loopback or cluster-internal listener, separate
// from the public API address: pprof exposes internals and must never face
// users.
func DebugMux(opts DebugOptions) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if opts.Ready != nil {
			if err := opts.Ready(); err != nil {
				w.WriteHeader(http.StatusServiceUnavailable)
				w.Write([]byte("not ready: " + err.Error() + "\n"))
				return
			}
		}
		if opts.Degraded != nil {
			if msg := opts.Degraded(); msg != "" {
				w.Write([]byte("ready (degraded): " + msg + "\n"))
				return
			}
		}
		if opts.Burning != nil {
			if msg := opts.Burning(); msg != "" {
				w.Write([]byte("ready (slo-burning): " + msg + "\n"))
				return
			}
		}
		w.Write([]byte("ready\n"))
	})
	mux.HandleFunc("GET /buildinfo", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "build info unavailable"})
			return
		}
		settings := make(map[string]string, len(bi.Settings))
		for _, s := range bi.Settings {
			settings[s.Key] = s.Value
		}
		json.NewEncoder(w).Encode(map[string]any{
			"path":      bi.Path,
			"module":    bi.Main.Path,
			"version":   bi.Main.Version,
			"goVersion": bi.GoVersion,
			"settings":  settings,
		})
	})
	return mux
}
