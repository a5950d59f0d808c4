// Package core assembles the LotusX engine: document ingestion, index and
// DataGuide construction, position-aware completion, twig evaluation with
// ranking, and rewriting fallback — the full server-side behaviour behind
// the paper's GUI.
package core

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"time"

	"lotusx/internal/complete"
	"lotusx/internal/dataguide"
	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/join"
	"lotusx/internal/obs"
	"lotusx/internal/rank"
	"lotusx/internal/rewrite"
	"lotusx/internal/twig"
)

// Engine is a fully built LotusX instance over one document.  It is
// immutable after construction and safe for concurrent use.
type Engine struct {
	ix        *index.Index
	guide     *dataguide.Guide
	completer *complete.Engine
	ranker    *rank.Ranker
	rewriter  *rewrite.Engine
	timing    BuildTiming
}

// BuildTiming is where an engine's construction time went — what a start-up
// banner shows so that a slow start can be placed without a profiler.
type BuildTiming struct {
	// Index is the index build: streams, postings, exact map and
	// completion tries.
	Index time.Duration
	// Guide is the DataGuide build and warm-up.
	Guide time.Duration
}

// BuildTiming reports how long the engine's constructor spent per phase.
func (e *Engine) BuildTiming() BuildTiming { return e.timing }

// FromDocument builds an Engine over an already-parsed document.
func FromDocument(d *doc.Document) *Engine {
	start := time.Now()
	ix := index.Build(d)
	indexed := time.Now()
	guide := dataguide.Build(d)
	guide.Warm()
	return &Engine{
		ix:        ix,
		guide:     guide,
		completer: complete.New(ix, guide),
		ranker:    rank.New(ix),
		rewriter:  rewrite.New(ix, guide),
		timing:    BuildTiming{Index: indexed.Sub(start), Guide: time.Since(indexed)},
	}
}

// FromReader parses XML from r and builds an Engine.
func FromReader(name string, r io.Reader) (*Engine, error) {
	d, err := doc.FromReader(name, r)
	if err != nil {
		return nil, err
	}
	return FromDocument(d), nil
}

// FromFile parses the XML file at path and builds an Engine.
func FromFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return FromReader(path, f)
}

// Save persists the engine as an index file: its document, checksummed
// (index.SaveDocument).  Open rebuilds everything else.
func (e *Engine) Save(w io.Writer) error { return index.SaveDocument(w, e.Document()) }

// Open builds an engine over the document of a file written by Save (see
// LoadDocument).
func Open(r io.Reader) (*Engine, error) {
	d, err := LoadDocument(r)
	if err != nil {
		return nil, err
	}
	return FromDocument(d), nil
}

// LoadDocument reads the document of a file written by Save, building no
// engine — for a caller that serves the document split into shards.  A bare
// document file (doc.Save, magic "LTXD"), which earlier builds' Save wrote,
// loads too; anything else is read as an index file, so junk fails with
// index.ErrCorrupt.
func LoadDocument(r io.Reader) (*doc.Document, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(4); string(magic) == "LTXD" {
		return doc.Load(br)
	}
	return index.LoadDocument(br)
}

// Document returns the underlying document.
func (e *Engine) Document() *doc.Document { return e.ix.Document() }

// Index returns the underlying index.
func (e *Engine) Index() *index.Index { return e.ix }

// Guide returns the structural summary.
func (e *Engine) Guide() *dataguide.Guide { return e.guide }

// Completer returns the auto-completion engine.
func (e *Engine) Completer() *complete.Engine { return e.completer }

// Rewriter returns the rewrite engine.
func (e *Engine) Rewriter() *rewrite.Engine { return e.rewriter }

// Ranker returns the answer ranker.
func (e *Engine) Ranker() *rank.Ranker { return e.ranker }

// Stats summarizes the engine for dashboards and the demo UI.
type Stats struct {
	Document   string
	Nodes      int
	Tags       int
	GuidePaths int
	Valued     int
}

// Stats returns engine-level statistics.
func (e *Engine) Stats() Stats {
	d := e.ix.Document()
	return Stats{
		Document:   d.Name(),
		Nodes:      d.Len(),
		Tags:       d.Tags().Len(),
		GuidePaths: e.guide.Size(),
		Valued:     e.ix.ValuedNodes(),
	}
}

// SearchOptions tunes Search.
type SearchOptions struct {
	// Algorithm selects the twig join; empty means TwigStack.
	Algorithm join.Algorithm
	// K is the number of answers wanted; 0 means 10.
	K int
	// Offset skips that many leading answers — result paging.  Exactness
	// accounting and rewrite triggering consider the full prefix, so page N
	// is always consistent with page N-1.
	Offset int
	// Rewrite enables relaxation when the exact query yields fewer than K
	// answers.
	Rewrite bool
	// MaxPenalty bounds the rewrite search; 0 means 2.5.
	MaxPenalty float64
	// MaxRewrites bounds how many rewrites are evaluated; 0 means 32.
	MaxRewrites int
	// MaxMatches caps match enumeration per query; 0 means 10000.
	MaxMatches int
	// Minimize removes redundant query branches before evaluation (tree
	// pattern minimization; preserves the answer set).
	Minimize bool
	// SnippetMax caps the rendered snippet of each Hit returned by
	// Backend.SearchHits, in bytes; 0 means 400.  Search/SearchContext
	// ignore it (they return raw nodes).
	SnippetMax int
}

// Canonical resolves every default and clamps nonsense values, returning
// the fully-normalized options.  It is THE canonicalization: Engine and
// corpus search paths both apply it once on entry, and the cache key
// builder (internal/cache) derives keys from its output — so two requests
// that mean the same thing always canonicalize, evaluate and cache
// identically.
func (o SearchOptions) Canonical() SearchOptions {
	if o.Algorithm == "" {
		o.Algorithm = join.TwigStack
	}
	if o.K == 0 {
		o.K = 10
	}
	if o.Offset < 0 {
		o.Offset = 0
	}
	if o.MaxPenalty == 0 {
		o.MaxPenalty = 2.5
	}
	if o.MaxRewrites == 0 {
		o.MaxRewrites = 32
	}
	if o.MaxMatches == 0 {
		o.MaxMatches = 10000
	}
	if o.SnippetMax == 0 {
		o.SnippetMax = 400
	}
	return o
}

// Answer is one ranked query answer.
type Answer struct {
	// Node is the match of the query's output node.
	Node doc.NodeID
	// Score is the ranking score (see package rank); answers from rewrites
	// rank below all exact answers regardless of score.
	Score float64
	// Scored carries the component breakdown.
	Scored rank.Scored
	// Rewrite is non-nil when this answer came from a relaxed query.
	Rewrite *rewrite.Rewrite
}

// SearchResult is the outcome of Search.
type SearchResult struct {
	Answers []Answer
	// Exact counts the leading answers that came from the original query.
	Exact int
	// Total counts the distinct answers materialized before the page was
	// cut.  Search stops materializing at Offset+K, so Total == Offset+K
	// means further answers may exist beyond this page.
	Total int
	// Stats are the join statistics of the original query's evaluation.
	Stats join.Stats
	// RewritesTried counts relaxed queries evaluated.
	RewritesTried int
	// Algorithm is the join algorithm that actually ran ("auto" resolved).
	Algorithm join.Algorithm
	// Elapsed is the total wall-clock evaluation time.
	Elapsed time.Duration
}

// Search evaluates q: exact matching, ranking, and — if enabled and the
// result is thin — rewriting in penalty order until K answers accumulate.
func (e *Engine) Search(q *twig.Query, opts SearchOptions) (*SearchResult, error) {
	return e.SearchContext(context.Background(), q, opts)
}

// SearchContext is Search under a context: the twig join polls ctx
// cooperatively mid-evaluation (see join.Options.Ctx) and the rewrite loop
// checks it between relaxations, so a cancelled or timed-out request stops
// burning CPU and returns the context's error.
func (e *Engine) SearchContext(ctx context.Context, q *twig.Query, opts SearchOptions) (*SearchResult, error) {
	opts = opts.Canonical()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	if q.Len() == 0 {
		if err := q.Normalize(); err != nil {
			return nil, err
		}
	}
	if opts.Minimize {
		q = q.Minimize()
	}

	// Paging: materialize the first Offset+K answers, then cut the page.
	want := opts.K + opts.Offset

	res, err := join.Run(e.ix, q, opts.Algorithm, join.Options{MaxMatches: opts.MaxMatches, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	out := &SearchResult{Stats: res.Stats, Algorithm: res.Algorithm}
	seen := make(map[doc.NodeID]struct{})
	outID := q.OutputNode().ID
	for _, s := range e.ranker.RankContext(ctx, q, res.Matches, 0) {
		node := s.Match[outID]
		if _, dup := seen[node]; dup {
			continue
		}
		seen[node] = struct{}{}
		out.Answers = append(out.Answers, Answer{Node: node, Score: s.Score, Scored: s})
		if len(out.Answers) >= want {
			break
		}
	}
	out.Exact = len(out.Answers)

	if opts.Rewrite && len(out.Answers) < want {
		// The whole relaxation phase — enumeration plus every rewrite's
		// join and ranking — nests under one "rewrite" span.
		rsp, rctx := obs.Start(ctx, "rewrite")
		err := e.searchRewrites(rctx, q, opts, out, seen, want)
		rsp.SetInt("tried", out.RewritesTried)
		rsp.SetErr(err)
		rsp.End()
		if err != nil {
			return nil, err
		}
	}
	out.Total = len(out.Answers)
	if opts.Offset > 0 {
		if opts.Offset >= len(out.Answers) {
			out.Answers = nil
		} else {
			out.Answers = out.Answers[opts.Offset:]
		}
		out.Exact -= opts.Offset
		if out.Exact < 0 {
			out.Exact = 0
		}
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// searchRewrites evaluates relaxations in penalty order, appending answers
// until want is reached.  It stops with the context's error once ctx dies.
func (e *Engine) searchRewrites(ctx context.Context, q *twig.Query, opts SearchOptions, out *SearchResult, seen map[doc.NodeID]struct{}, want int) error {
	for _, rw := range e.rewriter.EnumerateContext(ctx, q, opts.MaxPenalty, opts.MaxRewrites) {
		if len(out.Answers) >= want {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := join.Run(e.ix, rw.Query, opts.Algorithm, join.Options{MaxMatches: opts.MaxMatches, Ctx: ctx})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			continue // a rewrite that cannot run is simply skipped
		}
		out.RewritesTried++
		rwCopy := rw
		rwOutID := rw.Query.OutputNode().ID
		for _, s := range e.ranker.Rank(rw.Query, res.Matches, 0) {
			node := s.Match[rwOutID]
			if _, dup := seen[node]; dup {
				continue
			}
			seen[node] = struct{}{}
			out.Answers = append(out.Answers, Answer{
				Node: node, Score: s.Score, Scored: s, Rewrite: &rwCopy,
			})
			if len(out.Answers) >= want {
				return nil
			}
		}
	}
	return nil
}

// SearchString parses the XPath-subset query and searches.
func (e *Engine) SearchString(query string, opts SearchOptions) (*SearchResult, error) {
	return e.SearchStringContext(context.Background(), query, opts)
}

// SearchStringContext parses the XPath-subset query and searches under a
// context (see SearchContext).
func (e *Engine) SearchStringContext(ctx context.Context, query string, opts SearchOptions) (*SearchResult, error) {
	q, err := twig.Parse(query)
	if err != nil {
		return nil, err
	}
	return e.SearchContext(ctx, q, opts)
}

// Snippet renders the answer node's subtree as XML, truncated to max bytes
// (0 means no limit) — what the demo UI shows per answer.
func (e *Engine) Snippet(n doc.NodeID, max int) string {
	s := e.ix.Document().XMLString(n)
	if max > 0 && len(s) > max {
		s = s[:max] + "…"
	}
	return s
}

// Validate checks that a programmatically built query can run against this
// engine (normalized, known structure is not required — unknown tags simply
// match nothing).
func (e *Engine) Validate(q *twig.Query) error {
	if q == nil || q.Root == nil {
		return fmt.Errorf("core: nil query")
	}
	return q.Normalize()
}
