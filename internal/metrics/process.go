package metrics

import (
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// Process-level gauges: what the Go runtime says about the serving process
// itself — goroutines, heap, GC pauses — exported in both /api/v1/metrics
// and the Prometheus exposition, plus the conventional build-info family
// carrying version labels.

// ProcessSnapshot is the process slice of the metrics snapshot.
type ProcessSnapshot struct {
	Goroutines          int     `json:"goroutines" prom:"lotusx_process_goroutines,gauge" help:"Live goroutines in the serving process."`
	HeapAllocBytes      uint64  `json:"heapAllocBytes" prom:"lotusx_process_heap_alloc_bytes,gauge" help:"Bytes of allocated heap objects."`
	HeapSysBytes        uint64  `json:"heapSysBytes" prom:"lotusx_process_heap_sys_bytes,gauge" help:"Bytes of heap memory obtained from the OS."`
	GCCycles            uint32  `json:"gcCycles" prom:"lotusx_process_gc_cycles_total,counter" help:"Completed GC cycles."`
	GCPauseTotalSeconds float64 `json:"gcPauseTotalSeconds" prom:"lotusx_process_gc_pause_seconds_total,counter" help:"Cumulative stop-the-world GC pause time."`
	GoVersion           string  `json:"goVersion"`
	Version             string  `json:"version"`
	build               buildInfo
}

// buildInfo renders the build identity as an info gauge: its labels carry
// the identity, its value is always 1.
type buildInfo struct {
	Version   string `prom:",label=version"`
	GoVersion string `prom:",label=goversion"`
	Module    string `prom:",label=module"`
	One       int    `prom:"lotusx_build_info,gauge" help:"Build identity of the serving binary; the value is always 1."`
}

// processSnapshot reads the runtime's current state.  ReadMemStats costs a
// brief stop-the-world; it runs only when a snapshot or scrape asks, never
// on the request path.
func processSnapshot() ProcessSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	version, goVersion, module := buildIdentity()
	return ProcessSnapshot{
		Goroutines:          runtime.NumGoroutine(),
		HeapAllocBytes:      ms.HeapAlloc,
		HeapSysBytes:        ms.HeapSys,
		GCCycles:            ms.NumGC,
		GCPauseTotalSeconds: time.Duration(ms.PauseTotalNs).Seconds(),
		GoVersion:           goVersion,
		Version:             version,
		build:               buildInfo{Version: version, GoVersion: goVersion, Module: module, One: 1},
	}
}

var (
	buildOnce      sync.Once
	buildVersion   = "unknown"
	buildGoVersion = runtime.Version()
	buildModule    = "unknown"
)

// buildIdentity resolves the module version labels once from the binary's
// embedded build info (test binaries report their own module).
func buildIdentity() (version, goVersion, module string) {
	buildOnce.Do(func() {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.GoVersion != "" {
			buildGoVersion = bi.GoVersion
		}
		if bi.Main.Path != "" {
			buildModule = bi.Main.Path
		}
		if bi.Main.Version != "" {
			buildVersion = bi.Main.Version
		}
	})
	return buildVersion, buildGoVersion, buildModule
}
