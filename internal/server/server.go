// Package server exposes the LotusX engine over HTTP — the production
// serving layer that grew out of the demo paper's web GUI.  The versioned
// JSON API under /api/v1 mirrors the GUI's interactions one-to-one:
// statistics, position-aware completion while a twig grows, query evaluation
// with ranking and rewriting, and answer snippets.  Every request passes one
// envelope (request IDs, admission control, a configurable deadline with
// cooperative mid-join cancellation, panic recovery, per-endpoint metrics at
// /api/v1/metrics, the access log) driven by the route table.  See README.md
// in this directory for the full v1 surface.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lotusx/internal/cache"
	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/doc"
	"lotusx/internal/faults"
	"lotusx/internal/httpmw"
	"lotusx/internal/ingest"
	"lotusx/internal/join"
	"lotusx/internal/metrics"
	"lotusx/internal/obs"
	"lotusx/internal/slo"
	"lotusx/internal/twig"
)

// Request-validation bounds, enforced server-side so one request cannot ask
// for unbounded work.
const (
	maxK        = 1000
	maxOffset   = 1_000_000
	maxBodySize = 1 << 20 // 1 MiB query bodies
)

// Config tunes the serving layer.  The zero value serves with no deadline,
// no concurrency cap, and silent logs — the permissive demo setup.
type Config struct {
	// QueryTimeout bounds every API request; expired requests answer 504
	// with the timeout envelope.  0 disables the deadline.
	QueryTimeout time.Duration
	// MaxInflight caps concurrent API requests; excess load is shed with
	// 503 + Retry-After (the server as a whole is saturated — retry against
	// another instance).  0 disables the limiter.
	MaxInflight int
	// RateQPS enables per-client admission control: each client (the
	// X-Lotusx-Client header, else the remote address) gets a token bucket
	// refilled at this rate, and requests beyond it answer 429 + Retry-After
	// (this client specifically is over its rate — slow down).  0 disables
	// the limiter.  Health, metrics and job-poll routes are exempt, like the
	// in-flight limiter's.
	RateQPS float64
	// RateBurst is the rate limiter's bucket depth — how far a client may
	// burst above the sustained rate.  0 derives a default from RateQPS.
	RateBurst int
	// Logger receives structured request and panic logs; nil discards them.
	Logger *slog.Logger
	// Metrics is the registry backing /api/v1/metrics; nil allocates a
	// fresh one.
	Metrics *metrics.Registry
	// EnableAdmin mounts the mutating dataset-management routes (POST/DELETE
	// under /api/v1/datasets/...); off by default — the admin surface changes
	// and deletes served data, so it must be an explicit opt-in.
	EnableAdmin bool
	// CorpusDir, when non-empty with EnableAdmin, persists admin-created
	// corpora under <CorpusDir>/<dataset>/ (manifest + shard files).
	CorpusDir string
	// Corpus carries the fault-tolerance knobs (shard policy, time budgets,
	// circuit breaker) applied to admin-created corpora; the zero value is
	// the corpus package's production defaults.
	Corpus corpus.Tuning
	// SlowQuery is the slow-query log threshold: query and completion
	// requests taking at least this long are logged at WARN with their full
	// per-stage trace breakdown and a sanitized query.  0 disables the log
	// (and with it the always-on tracing of every request; ?debug=trace
	// still traces individual requests on demand).
	SlowQuery time.Duration
	// DisableResultCache turns off the snapshot-keyed search-result cache.
	// The zero value serves query answers through the cache (bounded by
	// CacheBytes, invalidated by snapshot generation — see internal/cache
	// and docs/PERFORMANCE.md).
	DisableResultCache bool
	// DisableCompletionCache turns off the completion cache (with its
	// prefix-extension fast path); on by default like the result cache.
	DisableCompletionCache bool
	// CacheBytes bounds the hot-path caches together (results 3/4,
	// completions 1/4).  0 means 64 MiB; negative disables both caches
	// regardless of the Disable* flags.
	CacheBytes int64
	// IngestWorkers sizes the async-ingest worker pool (admin only; 0 means
	// the ingest package default of 2).
	IngestWorkers int
	// IngestQueue bounds the queued-but-not-running ingest backlog; enqueues
	// beyond it answer 503 (0 means the default of 32).
	IngestQueue int
	// CompactThreshold is the delta-shard count at which a finished shard-add
	// job schedules a background compaction of its dataset.  0 means the
	// default (4); negative disables automatic compaction (the explicit
	// POST .../compact route still works).
	CompactThreshold int
	// MaxIngestBytes bounds admin ingest bodies; larger uploads answer 413
	// (0 means the default of 256 MiB).
	MaxIngestBytes int64
	// Faults, when non-nil, arms deterministic fault-injection sites in the
	// ingest pipeline and in admin-created corpora (tests and fault drills).
	Faults *faults.Registry
	// ClusterStatus, when non-nil, mounts GET /api/v1/cluster answering the
	// callback's value — the router's topology, replication and hedging
	// view (see docs/CLUSTER.md).  Nil (every non-router deployment) leaves
	// the route unmounted.
	ClusterStatus func() any
	// TraceCapacity bounds the tail-sampled trace store behind
	// GET /api/v1/traces: every request roots a trace, and interesting ones
	// (errors, partials, quarantines, hedges, slow-threshold crossings) plus
	// a uniform sample are retained for after-the-fact inspection.  0 means
	// the default (512 records); negative disables the store (and with it
	// the always-on rooting it implies).
	TraceCapacity int
	// TraceSampleEvery keeps one of every N uninteresting traces in the
	// store's uniform sample; 0 means the store default (64), negative
	// disables the sample (interesting traces are still retained).
	TraceSampleEvery int
	// SLO, when non-nil, tracks the declared service-level objectives over
	// the serving routes: every non-admin, non-observability response feeds
	// it, /api/v1/metrics and the Prometheus exposition report compliance
	// and burn rates, and /readyz flips to "ready (slo-burning)" while the
	// fast window burns (see internal/slo and docs/OBSERVABILITY.md).
	SLO *slo.Tracker
}

// defaultCompactThreshold is the delta-shard backlog that triggers an
// automatic background compaction after a shard-add job completes.
const defaultCompactThreshold = 4

// Server handles the LotusX HTTP API.  It serves one or more datasets from
// a core.Catalog; requests select one with ?dataset=, defaulting to the
// first registered.  A dataset may be a single engine or a sharded corpus —
// query, completion and explain answer identically for both (?shard= addresses
// one shard where a single document is needed, e.g. /node and /guide).
type Server struct {
	catalog      *core.Catalog
	mux          *http.ServeMux
	reg          *metrics.Registry
	corpusDir    string
	corpusTuning corpus.Tuning
	slowQuery    time.Duration
	logger       *slog.Logger
	faults       *faults.Registry
	// clusterStatus backs GET /api/v1/cluster; nil leaves it unmounted.
	clusterStatus func() any
	// traces is the tail-sampled trace store behind GET /api/v1/traces; nil
	// when Config.TraceCapacity is negative.
	traces *obs.Store
	// slo tracks the declared service-level objectives; nil when none are.
	slo *slo.Tracker

	// queue is the async ingestion pipeline (nil unless EnableAdmin): every
	// admin write runs as a job here, ?sync=1 or not; see submit.
	queue            *ingest.Queue
	compactThreshold int
	maxIngest        int64
	// journal is the durable accept/terminal log behind the admin ingests,
	// opened lazily under journalMu on the first accepted write (or at
	// startup when the corpus dir already exists); nil unless EnableAdmin
	// with a CorpusDir.  journalOff latches an open failure so the server
	// keeps serving (without durability) instead of retrying forever.  See
	// lifecycle.go.
	journal    *ingest.Journal
	journalMu  sync.Mutex
	journalOff bool
	// draining flips on BeginDrain: admission refuses new non-exempt
	// requests and /readyz reports not ready.
	draining atomic.Bool
	// The request envelope (envelope.go): the endpoints by name, the
	// in-flight slots (nil without -max-inflight), the per-client rate
	// limiter (nil without -rate-qps) and the per-request deadline.
	endpoints map[string]*endpoint
	slots     chan struct{}
	rate      *httpmw.RateLimiter
	timeout   time.Duration

	// routes is the mounted route table — the single source of truth for the
	// HTTP surface, kept for the API contract dump (see contract.go).
	routes []route
	// adminMu serializes the admin routes that create or delete whole
	// datasets: concurrent creates of the same name must not race each
	// other (or a delete) over the dataset's persistence directory.
	adminMu sync.Mutex

	// caches is the hot-path cache pair (results + completions); the catalog
	// always holds RAW backends (type asserts in engineFor/handleStats and
	// the admin routes must keep seeing concrete types), and the serving
	// handlers fetch a memoized cache-wrapped view per backend instead.
	caches   *cache.Set
	cachedMu sync.Mutex
	cached   map[core.Backend]core.Backend
}

// New returns a Server over a single engine (a one-dataset catalog) with
// the zero Config.
func New(engine *core.Engine) *Server { return NewConfig(engine, Config{}) }

// NewConfig returns a Server over a single engine with the given Config.
func NewConfig(engine *core.Engine, cfg Config) *Server {
	c := core.NewCatalog()
	c.Add(engine.Stats().Document, engine)
	return NewCatalogConfig(c, cfg)
}

// NewCatalog returns a Server over several named datasets with the zero
// Config.
func NewCatalog(catalog *core.Catalog) *Server { return NewCatalogConfig(catalog, Config{}) }

// NewCatalogConfig returns a Server over several named datasets, wiring the
// request envelope and per-endpoint metrics from cfg.
func NewCatalogConfig(catalog *core.Catalog, cfg Config) *Server {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	logger := httpmw.OrDiscard(cfg.Logger)
	cacheBytes := cfg.CacheBytes
	if cacheBytes == 0 {
		cacheBytes = 64 << 20
	}
	compactThreshold := cfg.CompactThreshold
	switch {
	case compactThreshold == 0:
		compactThreshold = defaultCompactThreshold
	case compactThreshold < 0:
		compactThreshold = 0 // disabled
	}
	s := &Server{
		catalog:      catalog,
		mux:          http.NewServeMux(),
		reg:          reg,
		corpusDir:    cfg.CorpusDir,
		corpusTuning: cfg.Corpus,
		slowQuery:    cfg.SlowQuery,
		logger:       logger,
		faults:       cfg.Faults,
		caches: cache.NewSet(cache.Config{
			Results:     !cfg.DisableResultCache,
			Completions: !cfg.DisableCompletionCache,
			MaxBytes:    cacheBytes,
			Metrics:     reg,
		}),
		cached:           make(map[core.Backend]core.Backend),
		compactThreshold: compactThreshold,
		maxIngest:        cfg.MaxIngestBytes,
		clusterStatus:    cfg.ClusterStatus,
		slo:              cfg.SLO,
		timeout:          cfg.QueryTimeout,
	}
	if cfg.MaxInflight > 0 {
		s.slots = make(chan struct{}, cfg.MaxInflight)
	}
	if cfg.RateQPS > 0 {
		s.rate = httpmw.NewRateLimiter(cfg.RateQPS, cfg.RateBurst, reg.Admission())
	}
	if cfg.TraceCapacity >= 0 {
		s.traces = obs.NewStore(obs.StoreConfig{
			Capacity:      cfg.TraceCapacity,
			SlowThreshold: cfg.SlowQuery,
			SampleEvery:   cfg.TraceSampleEvery,
		})
	}
	if s.maxIngest <= 0 {
		s.maxIngest = maxIngestSize
	}
	// Lifecycle metrics exist on every server so the exposition is uniform
	// (draining 0 until a drain starts, journal counters 0 without admin).
	reg.Lifecycle()
	if cfg.EnableAdmin {
		s.queue = ingest.New(ingest.Config{
			Workers:  cfg.IngestWorkers,
			Capacity: cfg.IngestQueue,
			Metrics:  reg.Ingest(),
			Stages:   reg,
			Faults:   cfg.Faults,
			Logger:   logger,
		})
		if s.corpusDir != "" {
			s.startJournal()
		}
	}

	s.routes = routeTable(s)
	s.mount(cfg)
	return s
}

// route is one row of the server's route table — the single source of truth
// for the HTTP surface.  Everything derives from it: the mux registrations,
// the per-path 405 fallbacks with their Allow headers, the endpoint each
// request is admitted and recorded under, and the API contract dump
// (contract.go).
type route struct {
	method string // HTTP method
	path   string // Go 1.22 ServeMux pattern
	name   string // metrics endpoint name
	h      http.HandlerFunc
	admin  bool // mounted only with Config.EnableAdmin
	exempt bool // bypasses admission control
	router bool // mounted only with Config.ClusterStatus (router mode)
}

// routeTable declares every route the server can serve.
func routeTable(s *Server) []route {
	return []route{
		// The read surface.
		{method: "GET", path: "/api/v1/stats", name: "stats", h: s.handleStats},
		{method: "GET", path: "/api/v1/datasets", name: "datasets", h: s.handleDatasets},
		{method: "GET", path: "/api/v1/complete", name: "complete", h: s.handleComplete},
		{method: "GET", path: "/api/v1/explain", name: "explain", h: s.handleExplain},
		{method: "POST", path: "/api/v1/query", name: "query", h: s.handleQuery},
		{method: "GET", path: "/api/v1/node/{id}", name: "node", h: s.handleNode},
		{method: "GET", path: "/api/v1/guide", name: "guide", h: s.handleGuide},
		// Observability; exempt from load shedding.
		{method: "GET", path: "/api/v1/cluster", name: "cluster", h: s.handleCluster, router: true, exempt: true},
		{method: "GET", path: "/api/v1/metrics", name: "metrics", h: s.handleMetrics, exempt: true},
		{method: "GET", path: "/api/v1/traces", name: "traces", h: s.handleTraces, exempt: true},
		{method: "GET", path: "/api/v1/traces/{id}", name: "traces", h: s.handleTrace, exempt: true},
		{method: "GET", path: "/metrics", name: "prometheus", h: s.handlePrometheus, exempt: true},
		// The async-ingestion jobs API; polls stay exempt so clients can watch
		// a job while the ingest it describes loads the server.
		{method: "GET", path: "/api/v1/jobs", name: "jobs", h: s.handleJobs, admin: true, exempt: true},
		{method: "GET", path: "/api/v1/jobs/{id}", name: "jobs", h: s.handleJob, admin: true, exempt: true},
		// The admin write surface.
		{method: "POST", path: "/api/v1/datasets/{name}", name: "admin", h: s.handleDatasetCreate, admin: true},
		{method: "DELETE", path: "/api/v1/datasets/{name}", name: "admin", h: s.handleDatasetDelete, admin: true},
		{method: "POST", path: "/api/v1/datasets/{name}/shards/{shard}", name: "admin", h: s.handleShardAdd, admin: true},
		{method: "DELETE", path: "/api/v1/datasets/{name}/shards/{shard}", name: "admin", h: s.handleShardDelete, admin: true},
		{method: "GET", path: "/api/v1/datasets/{name}/shards/{shard}/health", name: "admin", h: s.handleShardHealth, admin: true},
		{method: "POST", path: "/api/v1/datasets/{name}/shards/{shard}/health", name: "admin", h: s.handleShardHealthReset, admin: true},
		{method: "POST", path: "/api/v1/datasets/{name}/compact", name: "admin", h: s.handleCompact, admin: true},
	}
}

// fallbackMethods is the method set considered when generating per-path 405
// fallbacks; HEAD is omitted for paths that serve GET (the mux routes HEAD
// through GET patterns).
var fallbackMethods = []string{"GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS"}

// mount derives the full mux from the route table: method registrations
// and 405+Allow fallbacks for every known path under each unregistered
// method, plus GET / as the page, each wrapped in admitted under its
// endpoint.
func (s *Server) mount(cfg Config) {
	s.endpoints = map[string]*endpoint{"page": {name: "page", metrics: s.reg.Endpoint("page")}}
	// methodsByPath collects, per mounted path, the methods it serves — the
	// source of both the Allow headers and the fallback registrations.
	methodsByPath := make(map[string][]string)
	endpointByPath := make(map[string]*endpoint)
	for _, rt := range s.routes {
		if rt.admin && !cfg.EnableAdmin {
			continue
		}
		if rt.router && s.clusterStatus == nil {
			continue
		}
		e := s.endpoints[rt.name]
		if e == nil {
			// The serving surface feeds the SLO engine; admin writes and the
			// observability routes are operations, not the product.
			e = &endpoint{name: rt.name, exempt: rt.exempt, slo: s.slo != nil && !rt.admin && !rt.exempt,
				metrics: s.reg.Endpoint(rt.name)}
			s.endpoints[rt.name] = e
		}
		s.mux.Handle(rt.method+" "+rt.path, s.admitted(e, rt.h))
		methodsByPath[rt.path] = append(methodsByPath[rt.path], rt.method)
		endpointByPath[rt.path] = e
	}
	for path, methods := range methodsByPath {
		sort.Strings(methods)
		allow := strings.Join(methods, ", ")
		serves := make(map[string]bool, len(methods))
		for _, m := range methods {
			serves[m] = true
		}
		for _, m := range fallbackMethods {
			if serves[m] || (m == "HEAD" && serves["GET"]) {
				continue
			}
			s.mux.Handle(m+" "+path, s.admitted(endpointByPath[path], methodNotAllowed(allow)))
		}
	}
	s.mux.Handle("GET /", s.admitted(s.endpoints["page"], http.HandlerFunc(s.handleIndex)))
}

// methodNotAllowed answers 405 with the Allow header and the v1 envelope —
// a known path, an unsupported method.
func methodNotAllowed(allow string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Allow", allow)
		httpmw.WriteErrorCtx(r.Context(), w, http.StatusMethodNotAllowed,
			httpmw.CodeMethodNotAllowed,
			fmt.Sprintf("method %s not allowed here; allowed: %s", r.Method, allow))
	})
}

// Close stops the async-ingestion pipeline (waiting for running jobs'
// contexts to unwind) and closes the ingest journal.  The HTTP handler
// itself is stateless.
func (s *Server) Close() {
	if s.queue != nil {
		s.queue.Close()
	}
	if j := s.journalRef(); j != nil {
		j.Close()
	}
}

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// backendFor resolves the request's dataset to its Backend — single engine
// or sharded corpus, the caller need not care.
func (s *Server) backendFor(r *http.Request) (core.Backend, error) {
	return s.catalog.GetBackend(r.URL.Query().Get("dataset"))
}

// cachedBackendFor is backendFor through the hot-path caches: the memoized
// cache-wrapped view of the request's dataset.  Only the serving handlers
// (query, complete) use it; everything that needs the concrete backend type
// stays on backendFor.
func (s *Server) cachedBackendFor(r *http.Request) (core.Backend, error) {
	b, err := s.backendFor(r)
	if err != nil {
		return nil, err
	}
	s.cachedMu.Lock()
	defer s.cachedMu.Unlock()
	w, ok := s.cached[b]
	if !ok {
		w = s.caches.Wrap(b)
		s.cached[b] = w
	}
	return w, nil
}

// dropCached forgets the wrapped view of a backend that left the catalog,
// so a later dataset under the same name gets a fresh key space (wrapper
// identity is part of every cache key — a recreated corpus restarts its
// generation counter and must not collide with the old one's entries).
func (s *Server) dropCached(b core.Backend) {
	s.cachedMu.Lock()
	delete(s.cached, b)
	s.cachedMu.Unlock()
}

// engineFor resolves the request to one backing document engine: the
// dataset itself when single-engine, or the shard named by ?shard= when the
// dataset is a corpus (node and guide views are per-document).
func (s *Server) engineFor(r *http.Request) (*core.Engine, error) {
	b, err := s.backendFor(r)
	if err != nil {
		return nil, err
	}
	if e, ok := b.(*core.Engine); ok {
		return e, nil
	}
	engines := b.Engines()
	shard := r.URL.Query().Get("shard")
	if shard == "" {
		return nil, fmt.Errorf("dataset %q is sharded (%d shards): select one with ?shard=", b.Info().Name, len(engines))
	}
	for _, ne := range engines {
		if ne.Name == shard {
			return ne.Engine, nil
		}
	}
	return nil, fmt.Errorf("no shard %q in dataset %q", shard, b.Info().Name)
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"datasets": s.catalog.Names()})
}

// metricsSnapshot is the one read behind both metrics views: the registry's
// snapshot with the SLO tracker's folded in.
func (s *Server) metricsSnapshot() metrics.Snapshot {
	snap := s.reg.Snapshot()
	if s.slo != nil {
		snap.SLO = s.slo.Snapshot()
	}
	return snap
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metricsSnapshot())
}

// handleCluster serves the router's topology and hedging status (mounted
// only when Config.ClusterStatus is set).
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.clusterStatus())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Error envelope helpers — every failure path answers with the uniform
// {"error": {"code", "message", "requestId"}} body (see internal/httpmw).
// All take the request so the envelope carries its ID.

func badQuery(w http.ResponseWriter, r *http.Request, err error) {
	httpmw.WriteErrorCtx(r.Context(), w, http.StatusBadRequest, httpmw.CodeBadQuery, err.Error())
}

func notFound(w http.ResponseWriter, r *http.Request, err error) {
	httpmw.WriteErrorCtx(r.Context(), w, http.StatusNotFound, httpmw.CodeNotFound, err.Error())
}

func internalError(w http.ResponseWriter, r *http.Request, err error) {
	httpmw.WriteErrorCtx(r.Context(), w, http.StatusInternalServerError, httpmw.CodeInternal, err.Error())
}

// tooLarge answers 413 for an ingest body that outgrew the request bound.
func tooLarge(w http.ResponseWriter, r *http.Request, err error) {
	httpmw.WriteErrorCtx(r.Context(), w, http.StatusRequestEntityTooLarge, httpmw.CodeTooLarge, err.Error())
}

// overloaded answers 503 for writes the ingest queue cannot absorb.
func overloaded(w http.ResponseWriter, r *http.Request, err error) {
	refuse(w, r, http.StatusServiceUnavailable, time.Second, err.Error())
}

// writeBackendError maps a failed search, completion or explain to its
// status.  A dead context is 504.  Shards skipped on open circuit breakers
// are 503, with Retry-After set to the cooldown remaining (rounded up) so
// well-behaved clients back off until the next half-open probe.  A shard
// failure (failfast policy, or every shard down) is 502 — availability
// objectives and clients must see shard outages as server-side failures,
// never as their own malformed input.  Anything else is the endpoint's own
// fallback: a query the engine rejected is the client's fault, a failed
// completion the server's.
func writeBackendError(w http.ResponseWriter, r *http.Request, err error, fallback func(http.ResponseWriter, *http.Request, error)) {
	var (
		qe *corpus.QuarantineError
		se *corpus.ShardError
	)
	switch {
	case isCtxError(err):
		writeCtxError(w, r, err)
	case errors.As(err, &qe):
		refuse(w, r, http.StatusServiceUnavailable, qe.RetryAfter, err.Error())
	case errors.As(err, &se):
		httpmw.WriteErrorCtx(r.Context(), w, http.StatusBadGateway, httpmw.CodeUpstream, err.Error())
	default:
		fallback(w, r, err)
	}
}

// writeCtxError answers a request whose context died mid-evaluation: 504
// with the timeout envelope.  (A client disconnect surfaces as
// context.Canceled; the response goes nowhere, but the status keeps logs
// and metrics honest.)
func writeCtxError(w http.ResponseWriter, r *http.Request, err error) {
	httpmw.WriteErrorCtx(r.Context(), w, http.StatusGatewayTimeout, httpmw.CodeTimeout,
		"query deadline exceeded: "+err.Error())
}

// isCtxError reports whether err is a context cancellation or deadline.
func isCtxError(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	b, err := s.backendFor(r)
	if err != nil {
		notFound(w, r, err)
		return
	}
	// Single-engine datasets keep the original Stats payload shape; corpora
	// answer with the aggregated BackendInfo (kind, shards, summed sizes).
	if e, ok := b.(*core.Engine); ok {
		writeJSON(w, http.StatusOK, e.Stats())
		return
	}
	writeJSON(w, http.StatusOK, b.Info())
}

// completeResponse is the payload of /api/v1/complete.
type completeResponse struct {
	Candidates []complete.Candidate `json:"candidates"`
	// Trace is present only when requested (?debug=trace / X-Lotusx-Trace).
	Trace *obs.Node `json:"trace,omitempty"`
}

// handleComplete serves position-aware completion.
//
//	GET /api/v1/complete?kind=tag&path=//article&axis=child&prefix=au&k=8
//	GET /api/v1/complete?kind=value&path=//article/author&prefix=ji&k=8
//
// path is the partial twig's root-to-focus chain in the XPath subset; kind
// "tag" suggests tags for a new node under the path's last node via axis,
// kind "value" suggests values for the last node itself.  An empty path with
// kind=tag suggests root tags.
func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	b, err := s.cachedBackendFor(r)
	if err != nil {
		notFound(w, r, err)
		return
	}
	qv := r.URL.Query()
	kind := qv.Get("kind")
	prefix := qv.Get("prefix")
	k := 10
	if kv := qv.Get("k"); kv != "" {
		n, err := strconv.Atoi(kv)
		if err != nil || n < 1 || n > maxK {
			badQuery(w, r, fmt.Errorf("bad k %q: want 1..%d", kv, maxK))
			return
		}
		k = n
	}
	axis := twig.Child
	if a := qv.Get("axis"); a == "descendant" || a == "//" {
		axis = twig.Descendant
	}

	tr, r := s.startTrace(r, "complete")
	path := strings.TrimSpace(qv.Get("path"))
	var q *twig.Query
	focus := complete.NewRoot
	if path != "" {
		parsed, err := parseTraced(r, path)
		if err != nil {
			annotateTraceError(r, err)
			s.finishTrace(r, tr, nil)
			badQuery(w, r, fmt.Errorf("bad path: %w", err))
			return
		}
		q = parsed
		focus = q.OutputNode().ID
	}

	var cands []complete.Candidate
	switch kind {
	case "tag", "":
		cands, err = b.CompleteTags(r.Context(), q, focus, axis, prefix, k)
	case "value":
		if focus == complete.NewRoot {
			s.finishTrace(r, tr, q)
			badQuery(w, r, fmt.Errorf("value completion needs a path"))
			return
		}
		cands, err = b.CompleteValues(r.Context(), q, focus, prefix, k)
	default:
		s.finishTrace(r, tr, q)
		badQuery(w, r, fmt.Errorf("unknown kind %q", kind))
		return
	}
	if err != nil {
		annotateTraceError(r, err)
	}
	httpmw.Annotate(r.Context(), "candidates", len(cands))
	trace := s.finishTrace(r, tr, q)
	if err != nil {
		writeBackendError(w, r, err, internalError)
		return
	}
	writeJSON(w, http.StatusOK, completeResponse{Candidates: cands, Trace: trace})
}

// handleExplain reports where a candidate tag occurs at a position — the
// hover card next to a suggestion.
//
//	GET /api/v1/explain?path=//article&axis=child&tag=author&max=3
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	b, err := s.backendFor(r)
	if err != nil {
		notFound(w, r, err)
		return
	}
	qv := r.URL.Query()
	tag := qv.Get("tag")
	if tag == "" {
		badQuery(w, r, fmt.Errorf("tag is required"))
		return
	}
	axis := twig.Child
	if a := qv.Get("axis"); a == "descendant" || a == "//" {
		axis = twig.Descendant
	}
	max := 5
	if m := qv.Get("max"); m != "" {
		n, err := strconv.Atoi(m)
		if err != nil || n < 0 || n > 100 {
			badQuery(w, r, fmt.Errorf("bad max %q: want 0..100", m))
			return
		}
		max = n
	}
	path := strings.TrimSpace(qv.Get("path"))
	var q *twig.Query
	focus := complete.NewRoot
	if path != "" {
		parsed, err := twig.Parse(path)
		if err != nil {
			badQuery(w, r, fmt.Errorf("bad path: %w", err))
			return
		}
		q = parsed
		focus = q.OutputNode().ID
	}
	occs, err := b.ExplainTags(r.Context(), q, focus, axis, tag, max)
	if err != nil {
		writeBackendError(w, r, err, internalError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"tag": tag, "occurrences": occs})
}

// queryRequest is the body of POST /api/v1/query.
type queryRequest struct {
	Query   string `json:"query"`
	K       int    `json:"k"`
	Offset  int    `json:"offset"`
	Rewrite bool   `json:"rewrite"`
	// Algorithm optionally overrides the default TwigStack; it must name an
	// implemented algorithm (or "auto").
	Algorithm string `json:"algorithm"`
	// SnippetMax overrides the snippet byte bound (1..65536); 0 keeps the
	// 400-byte default.  Routers forward their bound here so shard servers
	// render snippets once, at the size the client asked for.
	SnippetMax int `json:"snippetMax"`
}

// maxSnippetMax bounds client-chosen snippet sizes.
const maxSnippetMax = 1 << 16

// queryAnswer is one answer in the response.
type queryAnswer struct {
	Node    int32   `json:"node"`
	Path    string  `json:"path"`
	Score   float64 `json:"score"`
	Snippet string  `json:"snippet"`
	// Shard names the answering shard for corpus datasets (it scopes Node:
	// pass it back as ?shard= to /api/v1/node); absent for single engines.
	Shard      string           `json:"shard,omitempty"`
	Rewrite    string           `json:"rewrite,omitempty"`
	Penalty    float64          `json:"penalty,omitempty"`
	Highlights []core.Highlight `json:"highlights,omitempty"`
}

// queryResponse is the payload of /api/v1/query.  The paging contract:
// Total counts the answers materialized server-side (at most offset+k —
// equal means further pages may exist), Offset echoes the request, and
// NextOffset, when present, is the offset of the next page.
type queryResponse struct {
	Answers    []queryAnswer `json:"answers"`
	Exact      int           `json:"exact"`
	Total      int           `json:"total"`
	Offset     int           `json:"offset"`
	NextOffset int           `json:"nextOffset,omitempty"`
	Rewrites   int           `json:"rewritesTried"`
	Algorithm  string        `json:"algorithm"`
	// Shards counts the shards fanned out to; present for corpus datasets
	// only.
	Shards int `json:"shards,omitempty"`
	// Partial reports a degraded answer: some shards failed and the page
	// covers only the survivors (the corpus's -shard-policy=degrade).  The
	// paging contract above still holds, computed over surviving shards.
	Partial bool `json:"partial,omitempty"`
	// FailedShards names the shards that failed, sorted; present only when
	// Partial.
	FailedShards []string `json:"failedShards,omitempty"`
	ElapsedMS    float64  `json:"elapsedMs"`
	XQuery       string   `json:"xquery"`
	// Trace is the per-stage span tree of this request; present only when
	// requested with ?debug=trace or X-Lotusx-Trace: 1.
	Trace *obs.Node `json:"trace,omitempty"`
}

// validAlgorithm reports whether name selects an implemented algorithm.
func validAlgorithm(name string) bool {
	if name == "" || join.Algorithm(name) == join.Auto {
		return true
	}
	for _, alg := range join.Algorithms {
		if join.Algorithm(name) == alg {
			return true
		}
	}
	return false
}

func algorithmNames() string {
	names := make([]string, 0, len(join.Algorithms)+1)
	for _, alg := range join.Algorithms {
		names = append(names, string(alg))
	}
	return strings.Join(append(names, string(join.Auto)), ", ")
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	b, err := s.cachedBackendFor(r)
	if err != nil {
		notFound(w, r, err)
		return
	}
	var req queryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodySize)).Decode(&req); err != nil {
		badQuery(w, r, fmt.Errorf("bad body: %w", err))
		return
	}
	if req.K < 0 || req.K > maxK {
		badQuery(w, r, fmt.Errorf("bad k %d: want 0..%d", req.K, maxK))
		return
	}
	if req.Offset < 0 || req.Offset > maxOffset {
		badQuery(w, r, fmt.Errorf("bad offset %d: want 0..%d", req.Offset, maxOffset))
		return
	}
	if !validAlgorithm(req.Algorithm) {
		badQuery(w, r, fmt.Errorf("unknown algorithm %q: want one of %s", req.Algorithm, algorithmNames()))
		return
	}
	if req.SnippetMax < 0 || req.SnippetMax > maxSnippetMax {
		badQuery(w, r, fmt.Errorf("bad snippetMax %d: want 0..%d", req.SnippetMax, maxSnippetMax))
		return
	}
	tr, r := s.startTrace(r, "query")
	q, err := parseTraced(r, req.Query)
	if err != nil {
		annotateTraceError(r, err)
		s.finishTrace(r, tr, nil)
		badQuery(w, r, err)
		return
	}
	opts := core.SearchOptions{K: req.K, Offset: req.Offset, Rewrite: req.Rewrite, SnippetMax: 400}
	if req.SnippetMax > 0 {
		opts.SnippetMax = req.SnippetMax
	}
	if req.Algorithm != "" {
		opts.Algorithm = join.Algorithm(req.Algorithm)
	}
	res, err := b.SearchHits(r.Context(), q, opts)
	if err != nil {
		annotateTraceError(r, err)
		s.finishTrace(r, tr, q)
		writeBackendError(w, r, err, badQuery)
		return
	}
	s.reg.Algorithm(string(res.Algorithm)).Observe(res.Elapsed)
	annotateSearch(r, res)
	trace := s.finishTrace(r, tr, q)
	resp := queryResponse{
		Exact:     res.Exact,
		Total:     res.Total,
		Offset:    req.Offset,
		Rewrites:  res.RewritesTried,
		Algorithm: string(res.Algorithm),
		ElapsedMS: float64(res.Elapsed.Microseconds()) / 1000,
		XQuery:    q.ToXQuery(),
		Trace:     trace,
	}
	if res.Shards > 1 {
		resp.Shards = res.Shards
	}
	resp.Partial = res.Partial
	resp.FailedShards = res.FailedShards
	for _, h := range res.Hits {
		resp.Answers = append(resp.Answers, queryAnswer{
			Node:       int32(h.Node),
			Path:       h.Path,
			Score:      h.Score,
			Snippet:    h.Snippet,
			Shard:      h.Shard,
			Rewrite:    h.Rewrite,
			Penalty:    h.Penalty,
			Highlights: h.Highlights,
		})
	}
	// Materialization stopped at the offset+k cut, so further answers may
	// exist: point the client at the next page.  A Total short of the cut
	// means the result set is exhausted and this is the last page.
	effK := req.K
	if effK == 0 {
		effK = 10 // SearchOptions' default page size
	}
	if res.Total == req.Offset+effK {
		resp.NextOffset = res.Total
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	engine, err := s.engineFor(r)
	if err != nil {
		notFound(w, r, err)
		return
	}
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 || id >= engine.Document().Len() {
		notFound(w, r, fmt.Errorf("no node %q", r.PathValue("id")))
		return
	}
	d := engine.Document()
	n := doc.NodeID(id)
	writeJSON(w, http.StatusOK, map[string]any{
		"id":    id,
		"tag":   d.TagName(n),
		"path":  d.Path(n),
		"value": d.Value(n),
		"xml":   engine.Snippet(n, 2000),
	})
}
