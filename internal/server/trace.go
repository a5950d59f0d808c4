package server

import (
	"errors"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"lotusx/internal/cache"
	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/httpmw"
	"lotusx/internal/metrics"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// Per-request tracing: the query and completion handlers run under an
// obs.Trace on every request once the tail-sampled trace store is on (the
// default), when slow-query logging is armed, or when the client asked to
// see the tree (?debug=trace, X-Lotusx-Trace: 1, or the passive
// X-Lotusx-Trace: sample a router uses).  Finished traces are folded into
// the always-on per-stage histograms and offered to the trace store, which
// retains the interesting ones (errors, partials, quarantines, hedges, slow
// crossings) plus a uniform sample; the span tree itself is only serialized
// into the response for clients that asked.

// traceRequested reports whether the client opted into receiving the trace
// AND measuring the uncached pipeline (?debug=trace bypasses the hot-path
// caches).
func traceRequested(r *http.Request) bool {
	return r.URL.Query().Get("debug") == "trace" || r.Header.Get("X-Lotusx-Trace") == "1"
}

// traceSampled reports the passive trace mode (X-Lotusx-Trace: sample): the
// response carries the span tree but the request serves through the caches
// like any other.  Routers use it on shard RPCs so always-on tail sampling
// never turns shard-side cache hits into misses.
func traceSampled(r *http.Request) bool {
	return r.Header.Get("X-Lotusx-Trace") == "sample"
}

// startTrace begins a trace named name for r when tracing is on for this
// request, returning the (possibly nil) trace and the context to evaluate
// under.  A nil trace costs nothing downstream: every span operation on the
// untraced path is a nil-check.
func (s *Server) startTrace(r *http.Request, name string) (*obs.Trace, *http.Request) {
	traced := traceRequested(r)
	if !traced && s.slowQuery <= 0 && s.traces == nil && !traceSampled(r) {
		return nil, r
	}
	ctx := r.Context()
	if traced {
		// A debug trace is a measurement of the real evaluation pipeline;
		// serving it from the hot-path cache would trace nothing.  Bypass
		// the caches for explicitly traced requests only — tail-sampled and
		// slow-query tracing cover normal traffic and must see cache behavior.
		ctx = cache.WithBypass(ctx)
	}
	tr := obs.New(name)
	return tr, r.WithContext(obs.ContextWith(ctx, tr.Root()))
}

// finishTrace closes the trace, folds its spans into the per-stage
// histograms, offers the trace to the tail-sampling store, and emits the
// slow-query log when the request exceeded the threshold.  It returns the
// rendered span tree when the client asked for it, nil otherwise.
func (s *Server) finishTrace(r *http.Request, tr *obs.Trace, q *twig.Query) *obs.Node {
	if tr == nil {
		return nil
	}
	tr.Finish()
	foldTrace(s.reg, tr)
	facts := traceFacts(tr)
	d := tr.Root().Duration()
	if s.slowQuery > 0 && d >= s.slowQuery {
		s.logSlowQuery(r, tr, q, d, facts)
	}
	if s.traces != nil {
		s.traces.Offer(&obs.TraceRecord{
			RequestID:   httpmw.RequestIDFrom(r.Context()),
			Endpoint:    tr.Root().Name(),
			Dataset:     r.URL.Query().Get("dataset"),
			Start:       tr.Root().Start(),
			DurationMS:  float64(d.Microseconds()) / 1000,
			Error:       facts.err,
			Partial:     facts.partial,
			Quarantined: facts.quarantined,
			Hedged:      facts.hedged,
		}, tr)
	}
	if traceRequested(r) || traceSampled(r) {
		return tr.Render()
	}
	return nil
}

// requestFacts are the classification facts of one finished request,
// collected from the span tree: what the handler recorded on the root span
// (error, partial, quarantine) plus what the fan-out recorded on its shard
// and rpc spans (hedging, cache behavior).  They drive both trace-store
// retention and the slow-query log's enrichment.
type requestFacts struct {
	err          string
	partial      bool
	failedShards string
	quarantined  bool
	cache        string // "hit", "miss", or "" outside the cached paths
	hedged       bool   // at least one hedge RPC fired
	hedgeWon     bool   // a hedged RPC answered first
}

// traceFacts walks the finished trace for the request's classification.
func traceFacts(tr *obs.Trace) requestFacts {
	root := tr.Root()
	f := requestFacts{
		err:          root.Attr("error"),
		partial:      root.Attr("partial") == "true",
		failedShards: root.Attr("failedShards"),
		quarantined:  root.Attr("quarantined") == "true",
		cache:        root.Attr("cache"),
	}
	tr.Each(func(sp *obs.Span) {
		switch sp.Name() {
		case "rpc":
			if sp.Attr("hedged") == "true" {
				f.hedged = true
			}
		case "shard":
			if sp.Attr("hedge") == "won" {
				f.hedgeWon = true
			}
		}
	})
	return f
}

// annotateTraceError records a failed request on its root span so the trace
// store retains the trace: the error text, and the quarantine classification
// when the failure was open shard circuit breakers.
func annotateTraceError(r *http.Request, err error) {
	root := obs.FromContext(r.Context())
	root.SetErr(err)
	if errors.Is(err, corpus.ErrShardQuarantined) {
		root.Set("quarantined", "true")
	}
}

// foldTrace feeds every finished span's duration into the registry's
// per-stage histograms, so stage aggregates are always on whether or not a
// client asked to see a trace.  The root span (the whole request, already
// covered by endpoint latency) and per-shard spans (covered by the corpus's
// per-shard histograms, which would explode stage cardinality here) are
// skipped.
func foldTrace(reg *metrics.Registry, tr *obs.Trace) {
	root := tr.Root()
	tr.Each(func(sp *obs.Span) {
		if sp == root || sp.Name() == "shard" {
			return
		}
		reg.Stage(sp.Name()).Observe(sp.Duration())
	})
}

// logSlowQuery emits one structured warning for a query that exceeded the
// slow-query threshold: the sanitized query, the full per-stage breakdown in
// compact form, the request ID to join with the access log, and the
// classification facts the handler already knew — so an operator reads why
// the query was slow (partial fan-out, cache miss, hedging) without re-
// running it under ?debug=trace.
func (s *Server) logSlowQuery(r *http.Request, tr *obs.Trace, q *twig.Query, d time.Duration, facts requestFacts) {
	attrs := []slog.Attr{
		slog.String("query", sanitizeQuery(q)),
		slog.Float64("durationMs", float64(d.Microseconds())/1000),
		slog.Float64("thresholdMs", float64(s.slowQuery.Microseconds())/1000),
		slog.String("dataset", r.URL.Query().Get("dataset")),
		slog.String("requestId", httpmw.RequestIDFrom(r.Context())),
		slog.String("trace", tr.Compact()),
	}
	if facts.err != "" {
		attrs = append(attrs, slog.String("error", facts.err))
	}
	if facts.partial {
		attrs = append(attrs, slog.Bool("partial", true),
			slog.String("failedShards", facts.failedShards))
	}
	if facts.cache != "" {
		attrs = append(attrs, slog.String("cache", facts.cache))
	}
	if facts.hedged {
		attrs = append(attrs, slog.Bool("hedgeFired", true),
			slog.Bool("hedgeWon", facts.hedgeWon))
	}
	s.logger.LogAttrs(r.Context(), slog.LevelWarn, "slow query", attrs...)
}

// sanitizeQuery renders q with predicate operands redacted — slow-query logs
// keep the query's shape (tags, axes, operators) without persisting what
// users searched for.
func sanitizeQuery(q *twig.Query) string {
	if q == nil {
		return ""
	}
	c := q.Clone()
	for _, n := range c.Nodes() {
		if n.Pred.Op != twig.NoPred && n.Pred.Value != "" {
			n.Pred.Value = "…"
		}
	}
	return c.String()
}

// readyReporter is the readiness slice of a backend.  Sharded corpora
// implement it (not ready mid-mutation or empty); plain engines — immutable
// once built — are always ready.
type readyReporter interface{ Ready() error }

// Ready aggregates readiness over every serving dataset: nil when each
// backend that reports readiness is ready.  GET /readyz on the debug
// listener serves this.  A draining server reports not ready first — the
// load balancer's cue to route elsewhere while shutdown completes.
func (s *Server) Ready() error {
	if s.draining.Load() {
		return errors.New("draining for shutdown")
	}
	for _, name := range s.catalog.Names() {
		b, err := s.catalog.GetBackend(name)
		if err != nil {
			return err
		}
		if rr, ok := b.(readyReporter); ok {
			if err := rr.Ready(); err != nil {
				return err
			}
		}
	}
	return nil
}

// degradedReporter is the degradation slice of a backend: serving, but
// impaired (quarantined shards).  Sharded corpora implement it.
type degradedReporter interface{ Degraded() string }

// Degraded aggregates degradation over every serving dataset: "" when every
// backend is whole, else the joined reasons.  GET /readyz renders a ready
// but degraded instance as "ready (degraded): ...".
func (s *Server) Degraded() string {
	var parts []string
	for _, name := range s.catalog.Names() {
		b, err := s.catalog.GetBackend(name)
		if err != nil {
			continue
		}
		if dr, ok := b.(degradedReporter); ok {
			if msg := dr.Degraded(); msg != "" {
				parts = append(parts, msg)
			}
		}
	}
	return strings.Join(parts, "; ")
}

// handlePrometheus serves the Prometheus text exposition — GET /metrics, the
// conventional scrape path — rendered from the same snapshot as the JSON at
// /api/v1/metrics.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	metrics.WritePrometheus(w, s.metricsSnapshot())
}

// metricsPath reports whether path is one of the metrics endpoints, which
// stay exempt from load shedding: observability must survive overload.
func metricsPath(path string) bool {
	return path == "/api/v1/metrics" || path == "/metrics"
}

// annotateSearch enriches the access log — and, for degraded answers, the
// request's root span — with the facts the handler learned doing the work:
// the resolved algorithm, the result count, and partial-coverage details.
// The root-span attrs are what classifies the trace as interesting in the
// tail-sampling store.
func annotateSearch(r *http.Request, res *core.HitResult) {
	httpmw.Annotate(r.Context(), "algorithm", string(res.Algorithm))
	httpmw.Annotate(r.Context(), "results", len(res.Hits))
	if res.Shards > 1 {
		httpmw.Annotate(r.Context(), "shards", res.Shards)
	}
	if res.Partial {
		httpmw.Annotate(r.Context(), "partial", true)
		httpmw.Annotate(r.Context(), "failedShards", strings.Join(res.FailedShards, ","))
		root := obs.FromContext(r.Context())
		root.Set("partial", "true")
		root.Set("failedShards", strings.Join(res.FailedShards, ","))
	}
	if res.RewritesTried > 0 {
		httpmw.Annotate(r.Context(), "rewritesTried", res.RewritesTried)
	}
}

// parseTraced parses the query under a "parse" span.
func parseTraced(r *http.Request, query string) (*twig.Query, error) {
	sp := obs.StartLeaf(r.Context(), "parse")
	q, err := twig.Parse(query)
	sp.SetErr(err)
	sp.End()
	return q, err
}
