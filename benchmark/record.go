package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// record is one run of one workload: typed values with units and sample
// counts, and the environment they were measured in.  run.json holds the
// records of every run made with one -out directory.
type record struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Env      env    `json:"env"`
	// Metrics holds every metric by name: the end-to-end ones of an untraced
	// run, the layer.* ones of a traced run.
	Metrics map[string]value `json:"metrics"`
	// Templates holds the query median of each template, Q1..Q13.
	Templates map[string]value `json:"templates,omitempty"`
	// Algorithms counts the join algorithm the planner chose per replayed
	// query (traced runs).
	Algorithms map[string]int `json:"algorithms,omitempty"`
	// Shares is each layer's self time as a share of the whole in-process
	// operation (traced runs).
	Shares []share `json:"shares,omitempty"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
}

type share struct {
	Op    string  `json:"op"`
	Layer string  `json:"layer"`
	Share float64 `json:"share"`
}

type env struct {
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	GoVersion  string  `json:"goVersion"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpuModel"`
	Seed       int64   `json:"seed"`
	WarmupS    float64 `json:"warmupSeconds"`
	WindowS    float64 `json:"windowSeconds"`
	// LatenessMS is how late the fixed-schedule writer started its writes,
	// median and worst; zero on closed-loop-only workloads.
	LatenessP50MS float64 `json:"latenessP50Ms"`
	LatenessMaxMS float64 `json:"latenessMaxMs"`
	Time          string  `json:"time"`
}

func readEnv(root string) env {
	e := env{
		Commit: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Time: time.Now().UTC().Format(time.RFC3339),
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if commit, err := git("rev-parse", "HEAD"); err == nil {
		e.Commit = commit
		status, _ := git("status", "--porcelain")
		e.Dirty = status != ""
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return e
}

const msPerS = 1000

func newRecord(c runConfig, res *loadResult, setup *samples) *record {
	rec := &record{
		Workload: c.w.Name, Traced: c.traced, Env: readEnv(c.root),
		Metrics: map[string]value{}, Templates: map[string]value{},
		Attempted: res.attempted, Failed: res.fails, Errors: res.errs,
	}
	rec.Env.Seed = c.seed
	rec.Env.WarmupS = c.warmup.Seconds()
	rec.Env.WindowS = res.windowS
	rec.Env.LatenessP50MS = res.lateness.median()
	rec.Env.LatenessMaxMS = res.lateness.quantile(1)

	m := rec.Metrics
	m["query_p50_ms"] = res.query.stat(0.5, msPerS, "ms")
	m["query_p95_ms"] = res.query.stat(0.95, msPerS, "ms")
	m["complete_p50_ms"] = res.complete.stat(0.5, msPerS, "ms")
	m["complete_p95_ms"] = res.complete.stat(0.95, msPerS, "ms")
	// A completion's latency has two modes — alone, or beside the other
	// client's query and the collector — and a percentile that falls between
	// them jumps from run to run.  The mean of the slowest tenth does not.
	tail, n := res.complete.tailMean(0.1)
	m["complete_tail10_ms"] = scalar(tail*msPerS, "ms", n)
	// p99 needs ten samples beyond it to mean anything.
	if res.query.n() >= 1000 {
		m["query_p99_ms"] = res.query.stat(0.99, msPerS, "ms")
	}
	if res.complete.n() >= 1000 {
		m["complete_p99_ms"] = res.complete.stat(0.99, msPerS, "ms")
	}
	completed := res.query.n() + res.complete.n()
	m["ops_per_s"] = scalar(ratio(float64(completed), res.windowS), "1/s", completed)
	m["failed_share"] = scalar(ratio(float64(res.fails), float64(res.attempted)), "ratio", res.attempted)
	m["setup_s"] = setup.stat(0.5, 1, "s")
	if c.w.Ingest {
		m["ingest_done_p50_ms"] = res.ingestDone.stat(0.5, 1, "ms")
		m["layer.ingest.queue_ms"] = res.queueMS.stat(0.5, 1, "ms")
		m["layer.ingest.run_ms"] = res.runMS.stat(0.5, 1, "ms")
	}
	for id, s := range res.perTemplate {
		rec.Templates[id] = s.stat(0.5, msPerS, "ms")
	}
	rec.Correct = res.fails == 0
	return rec
}

func (rec *record) fail(msg string) {
	rec.Correct = false
	rec.Errors = append(rec.Errors, msg)
}

// serverLayers adds what the server reports about its own layers: counters
// scraped before and after the measured window, and its peak memory.
func (rec *record) serverLayers(scrapes []serverMetrics, peakRSSMB float64) {
	m := rec.Metrics
	m["layer.process.peak_rss_mb"] = scalar(peakRSSMB, "MB", 1)
	if len(scrapes) != 2 {
		return
	}
	before, after := scrapes[0], scrapes[1]
	m["layer.process.gc_pause_ms"] = scalar((after.Process.GCPauseTotalSeconds-before.Process.GCPauseTotalSeconds)*msPerS, "ms", 1)
	var evictions int64
	for name, metric := range map[string]string{"results": "layer.cache.result_hit_ratio", "completions": "layer.cache.completion_hit_ratio"} {
		hits := after.Caches[name].Hits - before.Caches[name].Hits
		lookups := hits + after.Caches[name].Misses - before.Caches[name].Misses
		m[metric] = scalar(ratio(float64(hits), float64(lookups)), "ratio", int(lookups))
		evictions += after.Caches[name].Evictions - before.Caches[name].Evictions
	}
	m["layer.cache.evictions"] = scalar(float64(evictions), "count", 1)
	if after.Ingest != nil {
		// The window starts before the first write, so the totals are the run's.
		m["layer.ingest.compactions"] = scalar(float64(after.Ingest.Compactions), "count", 1)
		m["layer.ingest.compaction_run_ms"] = scalar(after.Ingest.CompactionRun.MeanMS, "ms", int(after.Ingest.CompactionRun.Count))
	}
}

const usPerS = 1e6

// replayLayers adds the per-layer numbers of the traced replay, and each
// layer's share of the whole in-process operation.
func (rec *record) replayLayers(t *topology, rp *replay) {
	m := rec.Metrics
	m["layer.doc.parse_ms"] = scalar(t.parseMS, "ms", 1)
	m["layer.index.build_ms"] = scalar(t.indexMS, "ms", 1)
	m["layer.dataguide.build_ms"] = scalar(t.guideMS, "ms", 1)
	m["layer.index.resident_mb"] = scalar(t.residentMB, "MB", 1)

	m["layer.twig.parse_us"] = rp.parse.stat(0.5, usPerS, "us")
	m["layer.join.run_ms"] = rp.joinRun.stat(0.5, msPerS, "ms")
	m["layer.join.scanned_per_match"] = scalar(ratio(float64(rp.scanned), float64(rp.matches)), "ratio", rp.matches)
	m["layer.rank.rank_ms"] = rp.rank.stat(0.5, msPerS, "ms")
	m["layer.complete.tags_us"] = rp.tags.stat(0.5, usPerS, "us")
	m["layer.complete.values_us"] = rp.values.stat(0.5, usPerS, "us")
	rec.Algorithms = rp.algorithms

	// core.self is what Engine.SearchHits does around join and rank: the
	// core.search span less its two children, per query.
	self := rp.tr.selfTimes()
	queries := rp.decomposed.get("query").n()
	m["layer.core.search_ms"] = rp.engine.get("query").stat(0.5, msPerS, "ms")
	m["layer.core.self_ms"] = scalar(ratio(self["op.query"]["core.search"]*msPerS, float64(queries)), "ms", queries)
	// Decomposed with spans against whole without: the recording overhead,
	// and how faithfully the separate calls add up to the whole operation.
	m["layer.trace.decomposed_ratio"] = scalar(ratio(rp.decomposed.sum("query")+rp.decomposed.sum("complete"),
		rp.engine.sum("query")+rp.engine.sum("complete")), "ratio", rp.sessions)

	if rp.sharded != nil {
		m["layer.corpus.search_ms"] = rp.sharded.get("query").stat(0.5, msPerS, "ms")
		m["layer.corpus.complete_us"] = rp.sharded.get("complete").stat(0.5, usPerS, "us")
		m["layer.corpus.overhead_ratio"] = scalar(ratio(rp.sharded.sum("query"), rp.engine.sum("query")), "ratio", queries)
	}
	if rp.cached != nil {
		all := samples{v: append(append([]float64(nil), rp.cached.get("query").v...), rp.cached.get("complete").v...)}
		m["layer.cache.hit_us"] = all.stat(0.5, usPerS, "us")
	}
	m["layer.server.handler_us"] = rp.handler.get("query").stat(0.5, usPerS, "us")
	m["layer.server.handler_complete_us"] = rp.handler.get("complete").stat(0.5, usPerS, "us")
	if _, writer := m["ingest_done_p50_ms"]; !writer {
		// The socket's share is the HTTP median less the handler's.  Beside a
		// writer the two are not the same operation: over HTTP most answers
		// are recomputed after a publish, in the replay every one is a hit.
		m["layer.server.socket_us"] = scalar(m["query_p50_ms"].Value*1000-m["layer.server.handler_us"].Value, "us", m["query_p50_ms"].N)
		m["layer.server.socket_complete_us"] = scalar(m["complete_p50_ms"].Value*1000-m["layer.server.handler_complete_us"].Value, "us", m["complete_p50_ms"].N)
	}

	// Shares of the handler operation, by summed time.  The handler's inner
	// call is the workload's backend: a cache hit, the sharded corpus, or the
	// engine, whose own parts the decomposed pass gives.
	for _, op := range []string{"query", "complete"} {
		whole := rp.handler.sum(op)
		add := func(layer string, seconds float64) {
			rec.Shares = append(rec.Shares, share{Op: op, Layer: layer, Share: ratio(seconds, whole)})
		}
		switch {
		case rp.cached != nil:
			add("server", whole-rp.cached.sum(op))
			add("cache", rp.cached.sum(op))
		case rp.sharded != nil:
			add("server", whole-rp.sharded.sum(op))
			add("corpus", rp.sharded.sum(op))
		default:
			add("server", whole-rp.engine.sum(op))
			for _, name := range []string{"twig.parse", "join.run", "rank.rank", "core.search", "complete.tags", "complete.values"} {
				if d := self["op."+op][name]; d > 0 {
					add(name, d)
				}
			}
			add("rest", self["op."+op]["op."+op])
		}
	}
}

// print writes every metric by name with its unit and sample count.
func (rec *record) print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s  seed %d  window %.1fs  commit %.12s dirty=%v  %s  nproc %d\n",
		rec.Workload, rec.Env.Seed, rec.Env.WindowS, rec.Env.Commit, rec.Env.Dirty, rec.Env.GoVersion, rec.Env.NumCPU)
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Metrics[name]
		fmt.Fprintf(w, "%-36s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, v.N)
	}
	ids := make([]string, 0, len(rec.Templates))
	for id := range rec.Templates {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return len(ids[i]) < len(ids[j]) || len(ids[i]) == len(ids[j]) && ids[i] < ids[j] })
	for _, id := range ids {
		v := rec.Templates[id]
		fmt.Fprintf(w, "query_p50_ms[%s]%*s %14.4f %-6s n=%d\n", id, 22-len(id), "", v.Value, v.Unit, v.N)
	}
	if len(rec.Algorithms) > 0 {
		fmt.Fprintf(w, "layer.join.algorithm_counts          %v\n", rec.Algorithms)
	}
	for _, s := range rec.Shares {
		fmt.Fprintf(w, "share[%s] %-26s %6.1f %%\n", s.Op, s.Layer, 100*s.Share)
	}
	if rec.Env.LatenessMaxMS > 0 {
		fmt.Fprintf(w, "writer lateness p50 %.3f ms, max %.3f ms\n", rec.Env.LatenessP50MS, rec.Env.LatenessMaxMS)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", rec.Attempted, rec.Failed, rec.Correct)
	for _, e := range rec.Errors {
		fmt.Fprintln(w, "  error:", e)
	}
}

// contract is BENCHMARK.json, the single list of the metrics the driver
// reads and of the bounds -compare applies.
type contract struct {
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(root string) (*contract, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// contractLine renders the run's result as the one JSON object the driver
// reads from the last line of standard output: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.  A per-layer metric
// the workload does not exercise reads 0.
func (rec *record) contractLine(c *contract) (string, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	list := c.EndToEnd
	if rec.Traced {
		list = c.PerLayer
	}
	metrics := map[string]metric{}
	for _, cm := range list {
		v, ok := rec.Metrics[cm.Name]
		if !ok && !rec.Traced {
			return "", fmt.Errorf("%s: end-to-end metric %s was not measured", rec.Workload, cm.Name)
		}
		metrics[cm.Name] = metric{Value: v.Value, Unit: cm.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": rec.Correct, "attempted": rec.Attempted, "failed": rec.Failed, "metrics": metrics,
	})
	return string(line), err
}

// appendRecord adds rec to the records in path.
func appendRecord(path string, rec *record) error {
	recs, err := readRecords(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return writeJSON(path, append(recs, rec))
}

func readRecords(path string) ([]*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []*record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
