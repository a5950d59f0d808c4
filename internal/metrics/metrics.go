// Package metrics provides the serving layer's observability primitives:
// lock-free atomic counters and bounded latency histograms, aggregated per
// HTTP endpoint, per join algorithm, per pipeline stage and per corpus
// shard, with quantile estimates (p50, p95, p99) computed from the
// histogram buckets.  Everything is safe for concurrent use on the request
// path; a Snapshot materializes a JSON-able view for GET /api/v1/metrics
// and WritePrometheus renders that same snapshot as the text exposition for
// GET /metrics, so the two views cannot disagree.
//
// # Adding a metric
//
// A metric is declared once, as a field of a snapshot type whose struct tag
// names its Prometheus family, type and help text:
//
//	Hits int64 `json:"hits" prom:"<family>,counter" help:"Cache lookups answered from a stored entry."`
//
// plus one line in that type's snapshot() copying the live value in.  The
// types are counter, gauge and histogram (a LatencySnapshot field).  Map
// fields name the label their keys fill (`prom:",label=corpus"`, or
// `prom:"<family>,histogram,label=stage"` for a map of leaves), and a string
// field tagged `prom:",label=version"` labels the other families of its
// struct; untagged struct and pointer fields are walked into.  A field with
// no prom tag is JSON-only.  The family then appears in both views; list it
// in docs/OBSERVABILITY.md and refresh
// internal/server/testdata/prometheus_families.golden.
//
// # Snapshot consistency semantics
//
// Observations are individual atomic adds with no global lock, so a
// snapshot taken while requests are in flight is not a single
// point-in-time cut:
//
//   - Within one histogram, the bucket vector is read element by element in
//     one pass and the sample count is derived from those same reads, so
//     count always equals the cumulative bucket total (the Prometheus +Inf
//     invariant holds by construction).  The sum is read separately and may
//     lag or lead the buckets by the handful of observations that landed
//     mid-read; the skew is bounded by in-flight requests and never
//     accumulates.
//   - Across fields of one endpoint (requests vs errors vs latency) and
//     across endpoints, counters are read independently; each is monotone,
//     so a snapshot can be "torn" by at most the requests that completed
//     while it was being taken.
//
// These are the standard semantics of lock-free metrics (Prometheus client
// libraries behave the same way); the alternative — a lock shared by every
// request — is the wrong trade for a hot serving path.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// bucketCount and the bounds below define the latency histogram: exponential
// buckets doubling from 100µs, so the range 100µs .. ~1.7min is covered in
// 21 buckets plus an overflow bucket.  Memory per histogram is fixed
// (bounded), whatever the traffic.
const bucketCount = 22

// bucketBound returns the inclusive upper bound of bucket i.  The last
// bucket (i == bucketCount-1) is the overflow bucket; its bound is only
// nominal.
func bucketBound(i int) time.Duration {
	return 100 * time.Microsecond << uint(i)
}

// Export is a coherent read of one histogram: Count is derived from the
// bucket loads themselves, so Count == ΣBuckets always holds within one
// Export (see the package comment for the exact semantics).
type Export struct {
	// Buckets holds per-bucket sample counts; bucket i covers
	// (bucketBound(i-1), bucketBound(i)], the last bucket is overflow.
	Buckets [bucketCount]int64
	// Count is the total number of samples (== sum of Buckets).
	Count int64
	// Sum is the summed latency in nanoseconds; it may skew from Count by
	// in-flight observations.
	Sum int64
}

// Histogram is a fixed-bucket latency histogram safe for concurrent
// observation.
type Histogram struct {
	buckets [bucketCount]atomic.Int64
	sum     atomic.Int64 // nanoseconds
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < bucketCount-1 && d > bucketBound(i) {
		i++
	}
	h.buckets[i].Add(1)
	h.sum.Add(int64(d))
}

// Export reads the histogram in one pass.  Snapshot and the Prometheus
// exposition both derive from it, so they agree within a single read.
func (h *Histogram) Export() Export {
	var e Export
	for i := 0; i < bucketCount; i++ {
		n := h.buckets[i].Load()
		e.Buckets[i] = n
		e.Count += n
	}
	e.Sum = h.sum.Load()
	return e
}

// Quantile estimates the q-quantile (0 < q < 1) as the upper bound of the
// bucket containing that rank, in milliseconds.  It returns 0 with no
// samples.  Bucket-bound estimation overshoots by at most one bucket width —
// plenty for dashboards and alerts.
func (e Export) Quantile(q float64) float64 {
	if e.Count == 0 {
		return 0
	}
	rank := int64(q*float64(e.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < bucketCount; i++ {
		seen += e.Buckets[i]
		if seen >= rank {
			return float64(bucketBound(i)) / float64(time.Millisecond)
		}
	}
	return float64(bucketBound(bucketCount-1)) / float64(time.Millisecond)
}

// LatencySnapshot is the JSON shape of one histogram.
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"meanMs"`
	P50MS  float64 `json:"p50Ms"`
	P95MS  float64 `json:"p95Ms"`
	P99MS  float64 `json:"p99Ms"`
	// export is the bucket read the fields above came from; the Prometheus
	// exposition renders the histogram from it.
	export Export `json:"-"`
}

// Snapshot summarizes the histogram from one Export.
func (h *Histogram) Snapshot() LatencySnapshot {
	e := h.Export()
	mean := 0.0
	if e.Count > 0 {
		mean = float64(e.Sum) / float64(e.Count) / float64(time.Millisecond)
	}
	return LatencySnapshot{
		Count:  e.Count,
		MeanMS: mean,
		P50MS:  e.Quantile(0.50),
		P95MS:  e.Quantile(0.95),
		P99MS:  e.Quantile(0.99),
		export: e,
	}
}

// Endpoint aggregates one HTTP endpoint: request/outcome counters plus a
// latency histogram.
type Endpoint struct {
	Requests atomic.Int64 // all requests routed to the endpoint
	Errors   atomic.Int64 // responses with status >= 400 (including the two below)
	Timeouts atomic.Int64 // responses that hit the per-request deadline (504)
	// ServerErrors counts responses with status >= 500 — refusals, panics,
	// timeouts and upstream failures alike: the bad events of an
	// availability objective over the endpoint.
	ServerErrors atomic.Int64
	// Shed counts requests refused by admission control: the drain gate and
	// the in-flight limit (both 503).  The server's admission outcome
	// tallies it, so handler-path 503s like shard quarantine are never
	// conflated in.
	Shed    atomic.Int64
	Latency Histogram
}

// Record tallies one finished request given its response status.
func (e *Endpoint) Record(status int, d time.Duration) {
	e.Requests.Add(1)
	e.Latency.Observe(d)
	if status >= 400 {
		e.Errors.Add(1)
	}
	if status >= 500 {
		e.ServerErrors.Add(1)
	}
	if status == 504 {
		e.Timeouts.Add(1)
	}
}

// EndpointSnapshot is the JSON shape of one endpoint's metrics.
type EndpointSnapshot struct {
	Requests     int64           `json:"requests" prom:"lotusx_endpoint_requests_total,counter" help:"Requests routed to the endpoint."`
	Errors       int64           `json:"errors" prom:"lotusx_endpoint_errors_total,counter" help:"Responses with status >= 400."`
	ServerErrors int64           `json:"serverErrors" prom:"lotusx_endpoint_server_errors_total,counter" help:"Responses with status >= 500: the bad events of an availability objective."`
	Timeouts     int64           `json:"timeouts" prom:"lotusx_endpoint_timeouts_total,counter" help:"Responses that hit the per-request deadline (504)."`
	Shed         int64           `json:"shed" prom:"lotusx_endpoint_shed_total,counter" help:"Requests refused by admission control: the in-flight limiter and the drain gate (503)."`
	Latency      LatencySnapshot `json:"latency" prom:"lotusx_endpoint_latency_seconds,histogram" help:"Request latency by endpoint."`
}

func (e *Endpoint) snapshot() EndpointSnapshot {
	return EndpointSnapshot{
		Requests:     e.Requests.Load(),
		Errors:       e.Errors.Load(),
		ServerErrors: e.ServerErrors.Load(),
		Timeouts:     e.Timeouts.Load(),
		Shed:         e.Shed.Load(),
		Latency:      e.Latency.Snapshot(),
	}
}

// Registry is the process-wide metrics root.  Every metric set is created on
// first use, so a server exports only the families of the tiers it runs.
type Registry struct {
	mu        sync.RWMutex
	endpoints map[string]*Endpoint
	algos     map[string]*Histogram
	stages    map[string]*Histogram
	corpora   map[string]*CorpusMetrics
	caches    map[string]*CacheMetrics
	remotes   map[string]*RemoteMetrics
	// The per-server tiers are singletons kept under the name "", so they
	// share the named sets' create path.
	ingest    map[string]*IngestMetrics
	lifecycle map[string]*LifecycleMetrics
	start     time.Time
}

// New returns an empty Registry.
func New() *Registry {
	return &Registry{start: time.Now()}
}

// lazy is the registry's one create-on-first-use path: it returns the entry
// of *m named name, allocating the map and a zero V under mu the first time
// the name is asked for.  A hit — every request's Endpoint, Algorithm and
// Stage lookup — is one read lock and a map read, with no allocation.
func lazy[V any](mu *sync.RWMutex, m *map[string]*V, name string) *V {
	mu.RLock()
	v := (*m)[name]
	mu.RUnlock()
	if v != nil {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	if v = (*m)[name]; v == nil {
		if *m == nil {
			*m = make(map[string]*V)
		}
		v = new(V)
		(*m)[name] = v
	}
	return v
}

// Endpoint returns (creating on first use) the metrics of the named
// endpoint.
func (r *Registry) Endpoint(name string) *Endpoint { return lazy(&r.mu, &r.endpoints, name) }

// Algorithm returns (creating on first use) the latency histogram of the
// named join algorithm.
func (r *Registry) Algorithm(name string) *Histogram { return lazy(&r.mu, &r.algos, name) }

// Stage returns (creating on first use) the latency histogram of the named
// pipeline stage — "parse", "join:twigstack", "rank", "fanout", "merge",
// "complete:tags", ... — fed by folding finished request traces, so the
// per-stage aggregates are always on whether or not a client asked to see
// its trace.
func (r *Registry) Stage(name string) *Histogram { return lazy(&r.mu, &r.stages, name) }

// Corpus returns (creating on first use) the metrics of the named corpus.
func (r *Registry) Corpus(name string) *CorpusMetrics { return lazy(&r.mu, &r.corpora, name) }

// DropCorpus forgets the named corpus: its series leave both views, and the
// registry no longer keeps the corpus reachable through its shard provider.
// A later Corpus(name) starts fresh series.
func (r *Registry) DropCorpus(name string) {
	r.mu.Lock()
	c := r.corpora[name]
	delete(r.corpora, name)
	r.mu.Unlock()
	if c != nil {
		c.SetShardProvider(nil)
	}
}

// Cache returns (creating on first use) the metrics of the named cache.
func (r *Registry) Cache(name string) *CacheMetrics { return lazy(&r.mu, &r.caches, name) }

// Remote returns (creating on first use) the remote-cluster metrics under
// the given name — conventionally the router-side dataset name.
func (r *Registry) Remote(name string) *RemoteMetrics { return lazy(&r.mu, &r.remotes, name) }

// Ingest returns the registry's ingest-pipeline metrics, creating them on
// first use; there is one ingest queue per server.
func (r *Registry) Ingest() *IngestMetrics { return lazy(&r.mu, &r.ingest, "") }

// Lifecycle returns the registry's drain and journal metrics, creating them
// on first use.
func (r *Registry) Lifecycle() *LifecycleMetrics { return lazy(&r.mu, &r.lifecycle, "") }

// Snapshot is the JSON payload of GET /api/v1/metrics and, through
// WritePrometheus, the source of GET /metrics.  See the package comment for
// its consistency semantics under concurrent load and for the prom tags.
type Snapshot struct {
	UptimeSeconds float64                     `json:"uptimeSeconds" prom:"lotusx_uptime_seconds,gauge" help:"Time since the metrics registry was created."`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints" prom:",label=endpoint"`
	Algorithms    map[string]LatencySnapshot  `json:"algorithms" prom:"lotusx_algorithm_latency_seconds,histogram,label=algorithm" help:"Query latency by resolved join algorithm."`
	// Stages appears once query traces have been folded in: per-pipeline-stage
	// latency aggregates (parse, join:<algo>, rank, fanout, merge, ...).
	Stages map[string]LatencySnapshot `json:"stages,omitempty" prom:"lotusx_stage_latency_seconds,histogram,label=stage" help:"Pipeline stage latency folded from query traces."`
	// Corpora appears only when sharded corpora are registered.
	Corpora map[string]CorpusSnapshot `json:"corpora,omitempty" prom:",label=corpus"`
	// Caches appears only when hot-path caches are registered (see
	// internal/cache): per-cache hit/miss/eviction/singleflight counters
	// plus live entry and byte counts.
	Caches map[string]CacheSnapshot `json:"caches,omitempty" prom:",label=cache"`
	// Remotes appears only on router nodes fanning out to remote shard
	// servers (see internal/remote): hedging outcomes and per-replica RPC
	// latency, keyed by cluster name.
	Remotes map[string]RemoteSnapshot `json:"remote,omitempty" prom:",label=cluster"`
	// Ingest appears once the async ingestion pipeline is running (see
	// internal/ingest): job counters, queue gauges and compaction totals.
	Ingest *IngestSnapshot `json:"ingest,omitempty"`
	// Lifecycle appears on servers with the lifecycle tier wired: the drain
	// state machine and the durable ingest journal.
	Lifecycle *LifecycleSnapshot `json:"lifecycle,omitempty"`
	// Process reports the Go runtime's view of the serving process:
	// goroutines, heap bytes, GC totals, and the build identity.
	Process ProcessSnapshot `json:"process"`
}

// Snapshot materializes a view of every registered metric.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Endpoints:     snapshotAll(r.endpoints, (*Endpoint).snapshot),
		Algorithms:    snapshotAll(r.algos, (*Histogram).Snapshot),
		Stages:        snapshotAll(r.stages, (*Histogram).Snapshot),
		Corpora:       snapshotAll(r.corpora, (*CorpusMetrics).snapshot),
		Caches:        snapshotAll(r.caches, (*CacheMetrics).snapshot),
		Remotes:       snapshotAll(r.remotes, (*RemoteMetrics).snapshot),
		Ingest:        snapshotOne(r.ingest, (*IngestMetrics).snapshot),
		Lifecycle:     snapshotOne(r.lifecycle, (*LifecycleMetrics).snapshot),
		Process:       processSnapshot(),
	}
}

// snapshotAll snapshots every entry of a named set (an empty map, never
// nil, when nothing is registered).
func snapshotAll[V, S any](m map[string]*V, snap func(*V) S) map[string]S {
	out := make(map[string]S, len(m))
	for name, v := range m {
		out[name] = snap(v)
	}
	return out
}

// snapshotOne snapshots a per-server singleton, nil until it was created.
func snapshotOne[V, S any](m map[string]*V, snap func(*V) S) *S {
	v := m[""]
	if v == nil {
		return nil
	}
	s := snap(v)
	return &s
}
