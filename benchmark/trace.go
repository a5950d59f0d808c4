package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"lotusx/internal/cache"
	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/doc"
	"lotusx/internal/join"
	"lotusx/internal/server"
	"lotusx/internal/twig"
)

// The traced run replays the first sessions of the stream in-process, once
// whole through core.Backend and once decomposed into calls to each layer's
// exported functions, with a span around every call.  Spans are recorded
// here, in the benchmark's own memory, and written out at exit; spans inside
// the program are a later change.

// span is one timed call into a layer.  Spans of one request share Req;
// Parent is the index of the span that caused this one, -1 for a request's
// root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer started
	End    int64  `json:"endNs"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) start(name string, parent, req int) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// selfTimes sums each span's self time — its duration less the part its
// child spans cover — in seconds, by the name of its request's root span and
// then by its own name.
func (t *tracer) selfTimes() map[string]map[string]float64 {
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]map[string]float64{}
	for i, s := range t.spans {
		root := i
		for t.spans[root].Parent >= 0 {
			root = t.spans[root].Parent
		}
		op := t.spans[root].Name
		if self[op] == nil {
			self[op] = map[string]float64{}
		}
		self[op][s.Name] += float64(s.End-s.Start-children[i]) / 1e9
	}
	return self
}

// opSamples are per-operation timings of one pass, in seconds, by op
// ("query", "complete").
type opSamples map[string]*samples

func (o opSamples) add(op string, d time.Duration) {
	if o[op] == nil {
		o[op] = &samples{}
	}
	o[op].add(d.Seconds())
}

func (o opSamples) get(op string) *samples {
	if o[op] == nil {
		return &samples{}
	}
	return o[op]
}

// sum is the total time of the op's samples, in seconds.
func (o opSamples) sum(op string) float64 {
	var s float64
	for _, x := range o.get(op).v {
		s += x
	}
	return s
}

// replay is the outcome of the traced run.
type replay struct {
	tr       *tracer
	sessions int
	// Whole operations: through the whole-document engine, through the
	// workload's backend behind warm caches, through the raw sharded corpus,
	// and through the server's handler.  The last three are nil when the
	// workload has no such layer.
	engine, cached, sharded, handler opSamples
	// decomposed is the engine operation again as separate calls, spans on.
	decomposed opSamples
	// Per-layer samples of the decomposed pass, seconds.
	parse, joinRun, rank, tags, values samples
	scanned, matches                   int
	algorithms                         map[string]int
}

// runReplay replays the stream's first sessions through every layer of the
// workload.  budget bounds one pass: when the whole-engine pass needs longer,
// every pass replays only the sessions that fitted, so a slow workload cannot
// outlast the run's time limit.
func runReplay(ctx context.Context, w workload, t *topology, stream []session, budget time.Duration) (*replay, error) {
	rp := &replay{tr: &tracer{t0: time.Now()}, algorithms: map[string]int{}}

	// timed runs one request whole through core.Backend and records how long
	// it took.
	timed := func(out opSamples, backends map[string]core.Backend, r *request) error {
		t0 := time.Now()
		_, _, err := perform(ctx, backends[r.Dataset], r)
		out.add(r.Op, time.Since(t0))
		return err
	}
	whole := func(backends map[string]core.Backend, reqs []*request) (opSamples, error) {
		out := opSamples{}
		for _, r := range reqs {
			if err := timed(out, backends, r); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// Whole: each operation once through core.Backend on the engine.  This
	// pass decides how many sessions every pass replays.
	engines := map[string]core.Backend{}
	for name, e := range t.engines {
		engines[name] = e
	}
	rp.engine = opSamples{}
	var reqs []*request
	for start := time.Now(); rp.sessions < len(stream) && time.Since(start) < budget; rp.sessions++ {
		for i := range stream[rp.sessions].Requests {
			r := &stream[rp.sessions].Requests[i]
			if err := timed(rp.engine, engines, r); err != nil {
				return nil, err
			}
			reqs = append(reqs, r)
		}
	}

	// Decomposed: the same operations as calls into each layer, spans on.
	rp.decomposed = opSamples{}
	for i, r := range reqs {
		d, err := rp.decompose(ctx, t.engines[r.Dataset], r, i)
		if err != nil {
			return nil, err
		}
		rp.decomposed.add(r.Op, d)
	}

	var err error
	if w.Shards > 1 {
		if rp.sharded, err = whole(t.backends, reqs); err != nil {
			return nil, err
		}
	}
	if w.Caches {
		// The second call of a request on a cache-wrapped backend is a hit.
		set := cache.NewSet(cache.Config{Results: true, Completions: true, MaxBytes: 64 << 20})
		wrapped := map[string]core.Backend{}
		for name, b := range t.backends {
			wrapped[name] = set.Wrap(b)
		}
		if _, err = whole(wrapped, reqs); err != nil { // fills the caches
			return nil, err
		}
		if rp.cached, err = whole(wrapped, reqs); err != nil {
			return nil, err
		}
	}

	srv := newHandler(w, t)
	defer srv.Close()
	rp.handler = opSamples{}
	serve := func(r *request, record bool) error {
		method, body := http.MethodGet, ""
		if r.Op == "query" {
			method, body = http.MethodPost, r.Body
		}
		req := httptest.NewRequest(method, r.URL, strings.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process handler: %s: %d %.200s", r.key(), rec.Code, rec.Body.String())
		}
		if record {
			rp.handler.add(r.Op, d)
		}
		return nil
	}
	for _, record := range []bool{false, true} {
		if !record && !w.Caches {
			continue // nothing to prime
		}
		for _, r := range reqs {
			if err := serve(r, record); err != nil {
				return nil, err
			}
		}
	}
	return rp, nil
}

// newHandler returns the server's handler over the workload's in-process
// backends, configured as the workload configures lotusx-server: middleware,
// decode, metrics and tracing bookkeeping, caches, backend, encode.
func newHandler(w workload, t *topology) *server.Server {
	catalog := core.NewCatalog()
	for _, kind := range w.Kinds {
		name := w.datasets()[kind]
		catalog.AddBackend(name, t.backends[name])
	}
	return server.NewCatalogConfig(catalog, server.Config{
		SlowQuery:              250 * time.Millisecond, // lotusx-server's default
		DisableResultCache:     !w.Caches,
		DisableCompletionCache: !w.Caches,
	})
}

// decompose runs one request as separate calls into twig, join, rank and
// complete, the way core.Engine composes them, with a span around each.  It
// returns the root span's duration.
func (rp *replay) decompose(ctx context.Context, e *core.Engine, r *request, id int) (time.Duration, error) {
	tr := rp.tr
	root := tr.start("op."+r.Op, -1, id)
	if r.Op == "complete" {
		sp := tr.start("twig.parse", root, id)
		q, focus, axis, err := completeArgs(r)
		rp.parse.add(tr.end(sp).Seconds())
		if err != nil {
			return 0, err
		}
		if q == nil { // a new root completes against the wildcard twig
			q = twig.NewQuery(twig.Wildcard)
			if err := q.Normalize(); err != nil {
				return 0, err
			}
			focus = complete.NewRoot
		}
		if r.Kind == "value" {
			sp = tr.start("complete.values", root, id)
			_, err = e.Completer().SuggestValuesContext(ctx, q, focus, r.Prefix, completeK)
			rp.values.add(tr.end(sp).Seconds())
		} else {
			sp = tr.start("complete.tags", root, id)
			_, err = e.Completer().SuggestTagsContext(ctx, q, focus, axis, r.Prefix, completeK)
			rp.tags.add(tr.end(sp).Seconds())
		}
		return tr.end(root), err
	}

	sp := tr.start("twig.parse", root, id)
	q, err := twig.Parse(r.Query)
	rp.parse.add(tr.end(sp).Seconds())
	if err != nil {
		return 0, err
	}
	opts := searchOptions(r).Canonical()
	// core.search is what Engine.SearchHits does around join and rank: the
	// distinct-answer cut at offset+k and the rendering of the page.
	search := tr.start("core.search", root, id)
	sp = tr.start("join.run", search, id)
	res, err := join.Run(e.Index(), q, join.Choose(e.Index(), q), join.Options{MaxMatches: opts.MaxMatches, Ctx: ctx})
	rp.joinRun.add(tr.end(sp).Seconds())
	if err != nil {
		return 0, err
	}
	rp.scanned += res.Stats.ElementsScanned
	rp.matches += res.Stats.MatchesEnumerated
	rp.algorithms[string(res.Algorithm)]++
	sp = tr.start("rank.rank", search, id)
	ranked := e.Ranker().RankContext(ctx, q, res.Matches, 0)
	rp.rank.add(tr.end(sp).Seconds())
	seen := map[doc.NodeID]bool{}
	var page []core.Hit
	for _, s := range ranked {
		node := s.Match[q.OutputNode().ID]
		if seen[node] {
			continue
		}
		seen[node] = true
		if len(seen) > opts.Offset {
			page = append(page, e.RenderHit("", q, core.Answer{Node: node, Score: s.Score, Scored: s}, opts.SnippetMax))
		}
		if len(seen) >= opts.Offset+opts.K {
			break
		}
	}
	_ = page
	tr.end(search)
	return tr.end(root), nil
}
