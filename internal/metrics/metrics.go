// Package metrics provides the serving layer's observability primitives:
// lock-free atomic counters and bounded latency histograms, aggregated per
// HTTP endpoint, per join algorithm, per pipeline stage and per corpus
// shard, with quantile estimates (p50, p95, p99) computed from the
// histogram buckets.  Everything is safe for concurrent use on the request
// path; a Snapshot materializes a JSON-able view for GET /api/v1/metrics
// and WritePrometheus renders the text exposition for GET /metrics.
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

// Export reads the histogram in one pass.  All derived views (Count,
// Quantile, MeanMS, snapshots, the Prometheus exposition) go through it so
// they agree with each other within a single read.
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

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 { return h.Export().Count }

// Quantile estimates the q-quantile (0 < q < 1) as the upper bound of the
// bucket containing that rank, in milliseconds.  It returns 0 with no
// samples.  Bucket-bound estimation overshoots by at most one bucket width —
// plenty for dashboards and alerts.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Export().Quantile(q)
}

// Quantile estimates the q-quantile over an already-exported read; see
// Histogram.Quantile.
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

// MeanMS returns the mean latency in milliseconds, 0 with no samples.
func (h *Histogram) MeanMS() float64 {
	e := h.Export()
	if e.Count == 0 {
		return 0
	}
	return float64(e.Sum) / float64(e.Count) / float64(time.Millisecond)
}

// Endpoint aggregates one HTTP endpoint: request/outcome counters plus a
// latency histogram.
type Endpoint struct {
	Requests atomic.Int64 // all requests routed to the endpoint
	Errors   atomic.Int64 // responses with status >= 400 (including the two below)
	Timeouts atomic.Int64 // responses that hit the per-request deadline (504)
	// Shed counts responses refused by admission control: per-client rate
	// limiting (429, tallied by Record) plus the in-flight limiter's and the
	// drain gate's 503s (tallied explicitly by their OnShed hooks, so
	// handler-path 503s like shard quarantine are never conflated in).
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
	switch status {
	case 504:
		e.Timeouts.Add(1)
	case 429:
		e.Shed.Add(1)
	}
}

// Registry is the process-wide metrics root.
type Registry struct {
	mu        sync.RWMutex
	endpoints map[string]*Endpoint
	algos     map[string]*Histogram
	stages    map[string]*Histogram
	corpora   map[string]*CorpusMetrics
	caches    map[string]*CacheMetrics
	remotes   map[string]*RemoteMetrics
	ingest    *IngestMetrics
	// lifecycle tracks drain state and the ingest journal; nil until
	// Lifecycle() is first called.
	lifecycle *LifecycleMetrics
	// admission tracks per-client rate limiting and the router retry budget;
	// nil until Admission() is first called.
	admission *AdmissionMetrics
	// cluster aggregates federated shard-server snapshots (router mode);
	// nil until Cluster() is first called.
	cluster *ClusterMetrics
	start   time.Time
}

// New returns an empty Registry.
func New() *Registry {
	return &Registry{
		endpoints: make(map[string]*Endpoint),
		algos:     make(map[string]*Histogram),
		stages:    make(map[string]*Histogram),
		corpora:   make(map[string]*CorpusMetrics),
		caches:    make(map[string]*CacheMetrics),
		remotes:   make(map[string]*RemoteMetrics),
		start:     time.Now(),
	}
}

// Endpoint returns (creating on first use) the metrics of the named
// endpoint.
func (r *Registry) Endpoint(name string) *Endpoint {
	r.mu.RLock()
	e := r.endpoints[name]
	r.mu.RUnlock()
	if e != nil {
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e = r.endpoints[name]; e == nil {
		e = &Endpoint{}
		r.endpoints[name] = e
	}
	return e
}

// Algorithm returns (creating on first use) the latency histogram of the
// named join algorithm.
func (r *Registry) Algorithm(name string) *Histogram {
	return lazyHistogram(r, r.algos, name)
}

// Stage returns (creating on first use) the latency histogram of the named
// pipeline stage — "parse", "join:twigstack", "rank", "fanout", "merge",
// "complete:tags", ... — fed by folding finished request traces, so the
// per-stage aggregates are always on whether or not a client asked to see
// its trace.
func (r *Registry) Stage(name string) *Histogram {
	return lazyHistogram(r, r.stages, name)
}

// lazyHistogram is the shared double-checked create for a registry
// histogram map (the maps are only written under r.mu).
func lazyHistogram(r *Registry, m map[string]*Histogram, name string) *Histogram {
	r.mu.RLock()
	h := m[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = m[name]; h == nil {
		h = &Histogram{}
		m[name] = h
	}
	return h
}

// LatencySnapshot is the JSON shape of one histogram.
type LatencySnapshot struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"meanMs"`
	P50MS  float64 `json:"p50Ms"`
	P95MS  float64 `json:"p95Ms"`
	P99MS  float64 `json:"p99Ms"`
}

func snapshotHistogram(h *Histogram) LatencySnapshot {
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
	}
}

// EndpointSnapshot is the JSON shape of one endpoint's metrics.
type EndpointSnapshot struct {
	Requests int64           `json:"requests"`
	Errors   int64           `json:"errors"`
	Timeouts int64           `json:"timeouts"`
	Shed     int64           `json:"shed"`
	Latency  LatencySnapshot `json:"latency"`
}

// Snapshot is the JSON payload of GET /api/v1/metrics.  See the package
// comment for its consistency semantics under concurrent load.
type Snapshot struct {
	UptimeSeconds float64                     `json:"uptimeSeconds"`
	Endpoints     map[string]EndpointSnapshot `json:"endpoints"`
	Algorithms    map[string]LatencySnapshot  `json:"algorithms"`
	// Stages appears once query traces have been folded in: per-pipeline-stage
	// latency aggregates (parse, join:<algo>, rank, fanout, merge, ...).
	Stages map[string]LatencySnapshot `json:"stages,omitempty"`
	// Corpora appears only when sharded corpora are registered.
	Corpora map[string]CorpusSnapshot `json:"corpora,omitempty"`
	// Caches appears only when hot-path caches are registered (see
	// internal/cache): per-cache hit/miss/eviction/singleflight counters
	// plus live entry and byte counts.
	Caches map[string]CacheSnapshot `json:"caches,omitempty"`
	// Remotes appears only on router nodes fanning out to remote shard
	// servers (see internal/remote): hedging outcomes and per-replica RPC
	// latency, keyed by cluster name.
	Remotes map[string]RemoteSnapshot `json:"remote,omitempty"`
	// Ingest appears once the async ingestion pipeline is running (see
	// internal/ingest): job counters, queue gauges and compaction totals.
	Ingest *IngestSnapshot `json:"ingest,omitempty"`
	// Lifecycle appears on servers with the lifecycle tier wired: the drain
	// state machine and the durable ingest journal.
	Lifecycle *LifecycleSnapshot `json:"lifecycle,omitempty"`
	// Admission appears once per-client rate limiting or the router retry
	// budget is active.
	Admission *AdmissionSnapshot `json:"admission,omitempty"`
	// Process reports the Go runtime's view of the serving process:
	// goroutines, heap bytes, GC totals, and the build identity.
	Process ProcessSnapshot `json:"process"`
	// SLO carries the slo.Tracker snapshot when objectives are declared (an
	// opaque value here so the metrics package needs no slo import; see
	// internal/server and internal/slo).
	SLO any `json:"slo,omitempty"`
}

// Snapshot materializes a view of every endpoint, algorithm, stage and
// corpus.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Endpoints:     make(map[string]EndpointSnapshot, len(r.endpoints)),
		Algorithms:    make(map[string]LatencySnapshot, len(r.algos)),
	}
	for name, e := range r.endpoints {
		s.Endpoints[name] = EndpointSnapshot{
			Requests: e.Requests.Load(),
			Errors:   e.Errors.Load(),
			Timeouts: e.Timeouts.Load(),
			Shed:     e.Shed.Load(),
			Latency:  snapshotHistogram(&e.Latency),
		}
	}
	for name, h := range r.algos {
		s.Algorithms[name] = snapshotHistogram(h)
	}
	if len(r.stages) > 0 {
		s.Stages = make(map[string]LatencySnapshot, len(r.stages))
		for name, h := range r.stages {
			s.Stages[name] = snapshotHistogram(h)
		}
	}
	if len(r.corpora) > 0 {
		s.Corpora = make(map[string]CorpusSnapshot, len(r.corpora))
		for name, c := range r.corpora {
			s.Corpora[name] = c.snapshot()
		}
	}
	if len(r.caches) > 0 {
		s.Caches = make(map[string]CacheSnapshot, len(r.caches))
		for name, c := range r.caches {
			s.Caches[name] = c.snapshot()
		}
	}
	if len(r.remotes) > 0 {
		s.Remotes = make(map[string]RemoteSnapshot, len(r.remotes))
		for name, m := range r.remotes {
			s.Remotes[name] = m.snapshot()
		}
	}
	if r.ingest != nil {
		snap := r.ingest.snapshot()
		s.Ingest = &snap
	}
	if r.lifecycle != nil {
		snap := r.lifecycle.snapshot()
		s.Lifecycle = &snap
	}
	if r.admission != nil {
		snap := r.admission.snapshot()
		s.Admission = &snap
	}
	s.Process = processSnapshot()
	return s
}
