package cache

import (
	"context"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/metrics"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// Backend-boundary caching: Set.Wrap decorates any core.Backend with a
// search-result cache and a completion cache, both keyed by the backend's
// snapshot generation (core.Backend.Generation), so admin mutations
// invalidate by making old keys unreachable rather than by scanning.
//
// Search results are cached page-folded: the entry under a key holds the
// full materialized prefix (K+Offset answers from offset 0), and any page
// over the same prefix is sliced from it — page 2 of a query the user just
// paged through is a cache hit, not a re-join.  This is sound because both
// engine and corpus search paths derive a (K, Offset) page from the same
// (K+Offset, 0) materialization with identical arithmetic.
//
// Completions additionally get a prefix-extension fast path: when the entry
// for a shorter prefix of the same position is complete — it held fewer
// than k candidates and none were fuzzy, so it is the position's entire
// exact candidate set — the longer prefix's answer is a pure filter of it,
// computed without touching the backend at all.  Typing "a", "au", "aut"
// costs one real completion, not three.

// Config sizes and enables a Set's caches.
type Config struct {
	// Results enables the search-result cache.
	Results bool
	// Completions enables the completion cache.
	Completions bool
	// MaxBytes bounds the summed cost of both caches; <= 0 disables both.
	// Search results get 3/4 of the budget, completions (tiny entries) 1/4.
	MaxBytes int64
	// Metrics receives per-cache counters under "results"/"completions";
	// nil runs uncounted.
	Metrics *metrics.Registry
}

// Set is one pair of hot-path caches shared by every wrapped backend of a
// server.  Wrapped backends get distinct key spaces, so two datasets — or a
// deleted-then-recreated dataset whose generation counter restarted —
// can never collide.
type Set struct {
	results     *Cache[*core.HitResult]
	completions *Cache[completionEntry]
	ids         atomic.Uint64
}

// NewSet builds the caches cfg enables; a Set with everything disabled (or
// a nil Set) wraps backends as themselves.
func NewSet(cfg Config) *Set {
	if cfg.MaxBytes <= 0 || (!cfg.Results && !cfg.Completions) {
		return &Set{}
	}
	s := &Set{}
	if cfg.Results {
		var met *metrics.CacheMetrics
		if cfg.Metrics != nil {
			met = cfg.Metrics.Cache("results")
		}
		s.results = New[*core.HitResult]("results", cfg.MaxBytes/4*3, met)
	}
	if cfg.Completions {
		var met *metrics.CacheMetrics
		if cfg.Metrics != nil {
			met = cfg.Metrics.Cache("completions")
		}
		s.completions = New[completionEntry]("completions", cfg.MaxBytes/4, met)
	}
	return s
}

// Wrap decorates b with the set's caches.  It returns b unchanged when
// nothing is enabled, so callers can wrap unconditionally.
func (s *Set) Wrap(b core.Backend) core.Backend {
	if s == nil || (s.results == nil && s.completions == nil) {
		return b
	}
	return &backend{Backend: b, set: s, id: s.ids.Add(1)}
}

// completionEntry is one cached completion answer.  complete marks it as
// the position's entire exact candidate set (fewer than k candidates, none
// fuzzy) — the precondition of the prefix-extension fast path.
type completionEntry struct {
	cands    []complete.Candidate
	complete bool
}

// backend decorates a core.Backend with the set's caches.  Everything not
// overridden (Info, ExplainTags, Engines, Generation) passes through.
type backend struct {
	core.Backend
	set *Set
	id  uint64
}

// SearchHits implements core.Backend with page-folded result caching.
func (w *backend) SearchHits(ctx context.Context, q *twig.Query, opts core.SearchOptions) (*core.HitResult, error) {
	if w.set.results == nil || Bypassed(ctx) {
		return w.Backend.SearchHits(ctx, q, opts)
	}
	// Normalize before rendering the key: the canonical string of an
	// unnormalized query differs from its normalized twin's.  Normalize is
	// idempotent, so the inner evaluation's own call is a no-op.
	if err := q.Normalize(); err != nil {
		return nil, err
	}
	copts := opts.Canonical()
	gen := w.Backend.Generation()
	key := w.searchKey(gen, q, copts)
	start := time.Now()

	full, computed, err := w.set.results.Do(ctx, key, func() (*core.HitResult, int64, bool, error) {
		fullOpts := copts
		fullOpts.K = copts.K + copts.Offset
		fullOpts.Offset = 0
		res, err := w.Backend.SearchHits(ctx, q, fullOpts)
		if err != nil {
			return nil, 0, false, err
		}
		// Never cache a degraded answer as the real one, a page cut short by
		// a dying context, or a result that raced a snapshot publish (the
		// generation the key names may no longer be what was read).
		cacheable := !res.Partial && ctx.Err() == nil && w.Backend.Generation() == gen
		return res, hitsCost(res), cacheable, nil
	})
	if err != nil {
		return nil, err
	}
	markSpan(ctx, !computed)
	return slicePage(full, copts.K, copts.Offset, start), nil
}

// CompleteTags implements core.Backend with completion caching and the
// prefix-extension fast path.
func (w *backend) CompleteTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, prefix string, k int) ([]complete.Candidate, error) {
	return w.completions(ctx, 'T', complete.AnchorChain(q, anchor), axis, prefix, k,
		func(ctx context.Context) ([]complete.Candidate, error) {
			return w.Backend.CompleteTags(ctx, q, anchor, axis, prefix, k)
		})
}

// CompleteValues implements core.Backend with completion caching and the
// prefix-extension fast path.
func (w *backend) CompleteValues(ctx context.Context, q *twig.Query, focus int, prefix string, k int) ([]complete.Candidate, error) {
	return w.completions(ctx, 'V', complete.AnchorChain(q, focus), 0, prefix, k,
		func(ctx context.Context) ([]complete.Candidate, error) {
			return w.Backend.CompleteValues(ctx, q, focus, prefix, k)
		})
}

// completions is the shared cache path of CompleteTags/CompleteValues:
// exact-key hit, then prefix-extension from a complete shorter-prefix
// entry, then the real computation under singleflight.
func (w *backend) completions(ctx context.Context, kind byte, chain string, axis twig.Axis, prefix string, k int, ask func(context.Context) ([]complete.Candidate, error)) ([]complete.Candidate, error) {
	if w.set.completions == nil || Bypassed(ctx) || k <= 0 {
		return ask(ctx)
	}
	// Both completion filters compare against the lowercased prefix, so two
	// prefixes differing only in case are the same request.
	lower := strings.ToLower(prefix)
	gen := w.Backend.Generation()
	key := w.completionKey(gen, kind, chain, axis, lower, k)

	if e, ok := w.set.completions.Get(key); ok {
		markSpan(ctx, true)
		return copyCands(e.cands), nil
	}

	// Prefix extension: the longest cached COMPLETE entry for a shorter
	// prefix of the same position already holds every exact candidate; the
	// answer for lower is a pure filter of it.  An empty filter result falls
	// through to the real computation instead — the backend may still have a
	// fuzzy (edit-distance) fallback to offer.
	for n := len(lower) - 1; n >= 0; n-- {
		parentKey := w.completionKey(gen, kind, chain, axis, lower[:n], k)
		e, ok := w.set.completions.Get(parentKey)
		if !ok {
			continue
		}
		if !e.complete {
			break // a capped or fuzzy parent proves nothing; compute for real
		}
		if derived := filterCands(e.cands, kind, lower); len(derived) > 0 {
			w.set.completions.Put(key, completionEntry{cands: derived, complete: true}, candsCost(derived))
			markSpan(ctx, true)
			return copyCands(derived), nil
		}
		break
	}

	e, computed, err := w.set.completions.Do(ctx, key, func() (completionEntry, int64, bool, error) {
		actx, degraded := core.WithDegradedCell(ctx)
		cands, err := ask(actx)
		if err != nil {
			return completionEntry{}, 0, false, err
		}
		ent := completionEntry{cands: cands, complete: isComplete(cands, k)}
		// Never cache a list merged without some of its shards (the backend
		// marks the cell), one cut short by a dying context, or one that
		// raced a snapshot publish.
		cacheable := !degraded.Load() && ctx.Err() == nil && w.Backend.Generation() == gen
		return ent, candsCost(cands), cacheable, nil
	})
	if err != nil {
		return nil, err
	}
	markSpan(ctx, !computed)
	return copyCands(e.cands), nil
}

// searchKey renders the result-cache key: wrapper identity, snapshot
// generation, the canonicalized options with the page folded to its
// materialization prefix (want = K+Offset), and the canonical query string
// last (it may contain any byte the user typed).
func (w *backend) searchKey(gen uint64, q *twig.Query, copts core.SearchOptions) string {
	var b strings.Builder
	b.WriteByte('s')
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(w.id, 10))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(gen, 10))
	b.WriteByte('|')
	b.WriteString(string(copts.Algorithm))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(copts.K + copts.Offset)) // the page fold
	b.WriteByte('|')
	if copts.Rewrite {
		b.WriteByte('r')
	}
	if copts.Minimize {
		b.WriteByte('m')
	}
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(copts.MaxPenalty, 'g', -1, 64))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(copts.MaxRewrites))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(copts.MaxMatches))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(copts.SnippetMax))
	b.WriteByte('|')
	b.WriteString(q.String())
	return b.String()
}

// completionKey renders the completion-cache key; the user-typed prefix is
// last and the anchor chain before it cannot contain the separator (XML
// names carry no control bytes), so the encoding is unambiguous.
func (w *backend) completionKey(gen uint64, kind byte, chain string, axis twig.Axis, lower string, k int) string {
	var b strings.Builder
	b.WriteByte('c')
	b.WriteByte(kind)
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(w.id, 10))
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(gen, 10))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(int(axis)))
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(k))
	b.WriteByte('|')
	b.WriteString(chain)
	b.WriteByte(0x1f)
	b.WriteString(lower)
	return b.String()
}

// slicePage derives the requested (k, offset) page from a cached full
// materialization, with arithmetic matching what the engine and corpus
// paths do natively — including nil-ness of the hits slice, so a cached
// page is byte-identical to an uncached one modulo Elapsed.
func slicePage(full *core.HitResult, k, offset int, start time.Time) *core.HitResult {
	out := *full
	if offset >= len(full.Hits) {
		out.Hits = nil
	} else {
		out.Hits = full.Hits[offset:]
		if len(out.Hits) > k {
			out.Hits = out.Hits[:k]
		}
	}
	out.Exact = full.Exact - offset
	if out.Exact < 0 {
		out.Exact = 0
	}
	out.Elapsed = time.Since(start)
	return &out
}

// filterCands replicates the backend's own prefix predicates — tags compare
// case-folded, values compare the raw text (see internal/complete
// filterTagCandidates and suggestValues) — so a derived entry matches what
// a fresh computation would return.  The input is already sorted by the
// total order (count desc, text asc); a filtered subsequence stays sorted.
func filterCands(cands []complete.Candidate, kind byte, lower string) []complete.Candidate {
	var out []complete.Candidate
	for _, c := range cands {
		text := c.Text
		if kind == 'T' {
			text = strings.ToLower(text)
		}
		if strings.HasPrefix(text, lower) {
			out = append(out, c)
		}
	}
	return out
}

// isComplete reports whether cands is the position's entire exact candidate
// set: nothing was cut at k and nothing came from the fuzzy fallback.
func isComplete(cands []complete.Candidate, k int) bool {
	if len(cands) >= k {
		return false
	}
	for _, c := range cands {
		if c.Fuzzy {
			return false
		}
	}
	return true
}

// copyCands hands callers their own slice so cached candidates can never be
// aliased and mutated; nil-ness is preserved (it is JSON-visible).
func copyCands(cands []complete.Candidate) []complete.Candidate {
	if cands == nil {
		return nil
	}
	return append(make([]complete.Candidate, 0, len(cands)), cands...)
}

// hitsCost estimates the resident bytes of a cached result.
func hitsCost(res *core.HitResult) int64 {
	cost := int64(160) // the HitResult itself
	for i := range res.Hits {
		h := &res.Hits[i]
		cost += int64(len(h.Shard)+len(h.Path)+len(h.Snippet)+len(h.Rewrite)) +
			int64(len(h.Highlights))*48 + 160
	}
	return cost
}

// candsCost estimates the resident bytes of a cached candidate list.
func candsCost(cands []complete.Candidate) int64 {
	cost := int64(48)
	for i := range cands {
		cost += int64(len(cands[i].Text)) + 48
	}
	return cost
}

// markSpan records the cache outcome on the request's trace span, if any.
func markSpan(ctx context.Context, hit bool) {
	sp := obs.FromContext(ctx)
	if sp == nil {
		return
	}
	if hit {
		sp.Set("cache", "hit")
	} else {
		sp.Set("cache", "miss")
	}
}
