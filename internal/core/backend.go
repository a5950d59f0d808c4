package core

import (
	"context"
	"sync/atomic"
	"time"

	"lotusx/internal/complete"
	"lotusx/internal/doc"
	"lotusx/internal/join"
	"lotusx/internal/rank"
	"lotusx/internal/twig"
)

// Backend is the query-time surface shared by a single Engine and a sharded
// corpus (internal/corpus): twig search, position-aware completion, candidate
// explanation, and access to the backing per-document engines.  The serving
// layer, the REPL and the CLI all route through it, so a dataset can be one
// document or many shards without the front-ends caring.
//
// Implementations must be safe for concurrent use; corpus-backed ones pin an
// immutable shard snapshot per call, so results are always internally
// consistent even while shards are added or removed.
type Backend interface {
	// Info describes the backend for banners and dashboards.
	Info() BackendInfo

	// SearchHits evaluates q (which must be normalized, as by twig.Parse)
	// and returns backend-independent, fully rendered hits: corpus backends
	// fan out across shards and merge into one globally ranked page.
	SearchHits(ctx context.Context, q *twig.Query, opts SearchOptions) (*HitResult, error)

	// CompleteTags proposes tags for a new node attached under twig node
	// anchor via axis; anchor == complete.NewRoot (with q == nil allowed)
	// proposes root tags.  Corpus backends merge candidates across shards by
	// summed occurrence count.
	CompleteTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, prefix string, k int) ([]complete.Candidate, error)

	// CompleteValues proposes text values for the twig node focus.
	CompleteValues(ctx context.Context, q *twig.Query, focus int, prefix string, k int) ([]complete.Candidate, error)

	// ExplainTags reports where a candidate tag occurs at a position, most
	// frequent path first, capped at max (0 means all).
	ExplainTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, tag string, max int) ([]complete.Occurrence, error)

	// Engines returns the backing engines, one per shard, pinned to a
	// consistent snapshot.  A single Engine returns itself under its
	// document name.
	Engines() []NamedEngine

	// Generation identifies the data snapshot answers are served from.  It
	// changes (monotonically) whenever the backend's data changes — corpus
	// backends return their copy-on-write snapshot sequence, bumped on every
	// publish — so callers (the hot-path caches, internal/cache) can key
	// results by generation and let mutations invalidate by construction.  A
	// single immutable Engine always returns 0.
	Generation() uint64
}

// NamedEngine is one backing engine of a Backend.
type NamedEngine struct {
	Name   string
	Engine *Engine
}

// BackendInfo summarizes a Backend.
type BackendInfo struct {
	// Name is the dataset name (the document name for single engines).
	Name string `json:"name"`
	// Kind is "engine" for a single document, "corpus" for a shard set.
	Kind string `json:"kind"`
	// Shards counts backing shards (1 for a single engine).
	Shards int `json:"shards"`
	// DeltaShards counts async-ingested delta shards awaiting compaction
	// (corpus backends only; see internal/corpus and internal/ingest).
	DeltaShards int `json:"deltaShards,omitempty"`
	// Nodes, Tags, GuidePaths and Valued aggregate over all shards.
	Nodes      int `json:"nodes"`
	Tags       int `json:"tags"`
	GuidePaths int `json:"guidePaths"`
	Valued     int `json:"valued"`
}

// Hit is one answer of Backend.SearchHits, rendered so callers need no
// access to the backing document: path, snippet and highlights are
// materialized under the snapshot that produced them.
type Hit struct {
	// Shard names the shard the answer came from; "" for single-engine
	// backends.
	Shard string
	// Node is the matched output node within its shard's document.
	Node doc.NodeID
	// Path is the root-to-node tag path in the shard's document.
	Path string
	// Score is the ranking score; see package rank.
	Score float64
	// Scored carries the component breakdown for explain views.
	Scored rank.Scored
	// Snippet is the node's subtree as XML, truncated to
	// SearchOptions.SnippetMax bytes.
	Snippet string
	// Highlights mark the predicate term matches inside the answer.
	Highlights []Highlight
	// Rewrite is the relaxed query's surface form when the answer came from
	// rewriting, "" for exact answers.
	Rewrite string
	// Penalty is the rewrite's penalty, 0 for exact answers.
	Penalty float64
}

// HitResult is the outcome of Backend.SearchHits.  Its paging contract
// matches SearchResult: Total counts answers materialized before the page
// cut, so Total == Offset+K means further pages may exist.
type HitResult struct {
	Hits []Hit
	// Exact counts the leading hits that came from the original query.
	Exact int
	// Total counts distinct answers materialized before the page was cut.
	Total int
	// RewritesTried counts relaxed queries evaluated (summed over shards).
	RewritesTried int
	// Stats sums the join statistics over all shards evaluated.
	Stats join.Stats
	// Algorithm is the join algorithm that ran; "mixed" when auto resolved
	// differently across shards.
	Algorithm join.Algorithm
	// Shards counts the shards fanned out to (1 for a single engine).
	Shards int
	// Partial reports that some shards failed and the result covers only the
	// survivors (corpus backends under the degrade policy; always false for
	// a single engine, which either answers fully or errors).
	Partial bool
	// FailedShards names the shards that failed, sorted; nil when Partial is
	// false.
	FailedShards []string
	// Elapsed is the total wall-clock time including fan-out and merge.
	Elapsed time.Duration
}

// Compile-time check: a single Engine is a Backend.
var _ Backend = (*Engine)(nil)

// Info implements Backend.
func (e *Engine) Info() BackendInfo {
	st := e.Stats()
	return BackendInfo{
		Name:       st.Document,
		Kind:       "engine",
		Shards:     1,
		Nodes:      st.Nodes,
		Tags:       st.Tags,
		GuidePaths: st.GuidePaths,
		Valued:     st.Valued,
	}
}

// Engines implements Backend: a single engine is its own one-shard set.
func (e *Engine) Engines() []NamedEngine {
	return []NamedEngine{{Name: e.ix.Document().Name(), Engine: e}}
}

// Generation implements Backend: a single engine's document never changes.
func (e *Engine) Generation() uint64 { return 0 }

// SearchHits implements Backend over one document: SearchContext plus hit
// rendering.
func (e *Engine) SearchHits(ctx context.Context, q *twig.Query, opts SearchOptions) (*HitResult, error) {
	res, err := e.SearchContext(ctx, q, opts)
	if err != nil {
		return nil, err
	}
	out := &HitResult{
		Exact:         res.Exact,
		Total:         res.Total,
		RewritesTried: res.RewritesTried,
		Stats:         res.Stats,
		Algorithm:     res.Algorithm,
		Shards:        1,
		Elapsed:       res.Elapsed,
	}
	for _, a := range res.Answers {
		out.Hits = append(out.Hits, e.RenderHit("", q, a, opts.Canonical().SnippetMax))
	}
	return out, nil
}

// RenderHit materializes one answer into a Hit under this engine's document;
// shard tags corpus answers.  A corpus merges per-shard answers first and
// renders only the surviving page.
func (e *Engine) RenderHit(shard string, q *twig.Query, a Answer, snippetMax int) Hit {
	h := Hit{
		Shard:   shard,
		Node:    a.Node,
		Path:    e.ix.Document().Path(a.Node),
		Score:   a.Score,
		Scored:  a.Scored,
		Snippet: e.Snippet(a.Node, snippetMax),
	}
	answerQuery := q
	if a.Rewrite != nil {
		h.Rewrite = a.Rewrite.Query.String()
		h.Penalty = a.Rewrite.Penalty
		answerQuery = a.Rewrite.Query
	}
	h.Highlights = e.Highlights(answerQuery, a.Scored.Match)
	return h
}

// rootTagQuery builds the wildcard query that backs root-tag completion
// when the caller has no twig yet.
func rootTagQuery() (*twig.Query, error) {
	q := twig.NewQuery(twig.Wildcard)
	if err := q.Normalize(); err != nil {
		return nil, err
	}
	return q, nil
}

// CompleteTags implements Backend.
func (e *Engine) CompleteTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, prefix string, k int) ([]complete.Candidate, error) {
	if q == nil || anchor == complete.NewRoot {
		var err error
		if q, err = rootTagQuery(); err != nil {
			return nil, err
		}
		anchor = complete.NewRoot
	}
	return e.completer.SuggestTagsContext(ctx, q, anchor, axis, prefix, k)
}

// CompleteValues implements Backend.
func (e *Engine) CompleteValues(ctx context.Context, q *twig.Query, focus int, prefix string, k int) ([]complete.Candidate, error) {
	return e.completer.SuggestValuesContext(ctx, q, focus, prefix, k)
}

// ExplainTags implements Backend.
func (e *Engine) ExplainTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, tag string, max int) ([]complete.Occurrence, error) {
	return e.completer.ExplainTagContext(ctx, q, anchor, axis, tag, max)
}

// degradedKey carries the cell a Backend marks when the answer it is
// computing is degraded — merged without some of its shards.  It travels on
// the context because the completion methods above have no result field to
// say so (search has HitResult.Partial); the completion cache installs a
// cell before asking and does not store an answer that marked it.
type degradedKey struct{}

// WithDegradedCell returns a context carrying a fresh, unset cell.
func WithDegradedCell(ctx context.Context) (context.Context, *atomic.Bool) {
	cell := new(atomic.Bool)
	return context.WithValue(ctx, degradedKey{}, cell), cell
}

// MarkDegraded sets the context's cell, if a caller installed one.
func MarkDegraded(ctx context.Context) {
	if cell, ok := ctx.Value(degradedKey{}).(*atomic.Bool); ok {
		cell.Store(true)
	}
}
