package corpus

import (
	"context"
	"fmt"
	"time"

	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/doc"
	"lotusx/internal/join"
	"lotusx/internal/twig"
)

// ShardBackend is one evaluatable shard of a corpus — the seam between the
// fan-out machinery (scatter: retries, budgets, breakers; the merges) and
// where a shard actually lives.  The in-process engine shard (localShard) is
// the first implementation; internal/remote.Shard speaks the same interface
// over HTTP to a shard server, which is how one corpus fans out across
// machines.  Everything above the interface — degrade/failfast policy,
// per-shard circuit breakers, time budgets with one transparent retry,
// partial-result envelopes — applies identically to both, so a dead shard
// server degrades exactly like a dead local shard.
//
// Implementations must be safe for concurrent use; the fan-out may call one
// backend from several requests at once.
type ShardBackend interface {
	// ShardName names the shard for merges, metrics, breaker records and
	// trace spans.  It must be stable for the backend's lifetime.
	ShardName() string

	// SearchShard evaluates q (normalized; implementations that mutate
	// evaluation state must clone it) and returns the shard's ranked page.
	// opts arrive canonicalized with K already widened to the global
	// offset+k cut and Offset zeroed — paging happens after the global
	// merge.
	SearchShard(ctx context.Context, q *twig.Query, opts core.SearchOptions) (*ShardPage, error)

	// CompleteTags, CompleteValues and ExplainTags mirror core.Backend for
	// one shard; the corpus merges candidates/occurrences across shards by
	// summed count.
	CompleteTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, prefix string, k int) ([]complete.Candidate, error)
	CompleteValues(ctx context.Context, q *twig.Query, focus int, prefix string, k int) ([]complete.Candidate, error)
	ExplainTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, tag string, max int) ([]complete.Occurrence, error)
}

// ShardAnswer is one ranked answer of a shard page.  The merge ranks on the
// inline fields and calls Render only for answers that survive the global
// page cut, so a local shard renders snippets lazily (the expensive part)
// while a remote shard just replays what came over the wire.
type ShardAnswer struct {
	// Node orders ties deterministically; IDs are scoped to the shard.
	Node doc.NodeID
	// Score ranks within the exact and rewrite partitions.
	Score float64
	// Penalty is the rewrite penalty (0 for exact answers); rewrites rank by
	// penalty ascending before score.
	Penalty float64
	// Render materializes the final hit at the given snippet bound.
	Render func(snippetMax int) core.Hit
}

// ShardPage is one shard's ranked answer page plus the counters the merge
// aggregates.  Answers[:Exact] are exact matches, the rest rewrites —
// both partitions already ranked by the shard.
type ShardPage struct {
	Exact         int
	Answers       []ShardAnswer
	Total         int
	RewritesTried int
	Stats         join.Stats
	Algorithm     join.Algorithm
	// PartialShards names sub-shards that failed when the backend is itself
	// a degraded corpus — a remote shard server running its own fan-out
	// answered partial:true.  The router surfaces them (prefixed with this
	// shard's name) in the merged result's FailedShards.
	PartialShards []string
}

// localShard adapts a shard's in-process engine to ShardBackend.  It is a
// view over the same struct ((*localShard)(sh)), so wrapping allocates
// nothing on the query path.
type localShard shard

func (l *localShard) ShardName() string { return l.name }

// SearchShard evaluates one clone of q on the shard's engine.  Each call
// clones: twig evaluation mutates stack state keyed by node IDs, and
// Normalize assigns the same preorder IDs to the same tree, so clones are
// interchangeable with q for ID-based bookkeeping.
func (l *localShard) SearchShard(ctx context.Context, q *twig.Query, opts core.SearchOptions) (*ShardPage, error) {
	sq := q.Clone()
	res, err := l.engine.SearchContext(ctx, sq, opts)
	if err != nil {
		return nil, err
	}
	page := &ShardPage{
		Exact:         res.Exact,
		Total:         res.Total,
		RewritesTried: res.RewritesTried,
		Stats:         res.Stats,
		Algorithm:     res.Algorithm,
		Answers:       make([]ShardAnswer, len(res.Answers)),
	}
	name, engine := l.name, l.engine
	for i, a := range res.Answers {
		a := a
		sa := ShardAnswer{Node: a.Node, Score: a.Score}
		if a.Rewrite != nil {
			sa.Penalty = a.Rewrite.Penalty
		}
		// Render against the clone the shard evaluated — the answer's rewrite
		// pointers belong to that clone's ID space.
		sa.Render = func(snippetMax int) core.Hit {
			return engine.RenderHit(name, sq, a, snippetMax)
		}
		page.Answers[i] = sa
	}
	return page, nil
}

func (l *localShard) CompleteTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, prefix string, k int) ([]complete.Candidate, error) {
	return l.engine.CompleteTags(ctx, q, anchor, axis, prefix, k)
}

func (l *localShard) CompleteValues(ctx context.Context, q *twig.Query, focus int, prefix string, k int) ([]complete.Candidate, error) {
	return l.engine.CompleteValues(ctx, q, focus, prefix, k)
}

func (l *localShard) ExplainTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, tag string, max int) ([]complete.Occurrence, error) {
	return l.engine.ExplainTags(ctx, q, anchor, axis, tag, max)
}

// be returns the shard's backend: the explicit one for remote shards, the
// zero-allocation local view otherwise.
func (sh *shard) be() ShardBackend {
	if sh.backend != nil {
		return sh.backend
	}
	return (*localShard)(sh)
}

// QuarantineError reports a shard skipped because its circuit breaker is
// open, carrying the cooldown remaining before a half-open probe will be
// admitted.  It unwraps to ErrShardQuarantined; the HTTP layer surfaces
// RetryAfter as a Retry-After header when a whole corpus is quarantined.
type QuarantineError struct {
	// Shard names the quarantined shard.
	Shard string
	// RetryAfter is the cooldown remaining before the next probe (0 when the
	// breaker is due to probe immediately).
	RetryAfter time.Duration
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("corpus: shard %s: %v (retry in %v)", e.Shard, ErrShardQuarantined, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap chains to ErrShardQuarantined so errors.Is keeps working.
func (e *QuarantineError) Unwrap() error { return ErrShardQuarantined }

// ShardError reports a search or completion that failed because a shard
// could not answer — an upstream failure, not a client error.  The HTTP
// layer maps it to 502 so availability objectives and clients see shard
// outages as server-side failures.
type ShardError struct {
	// Shard names the failed shard.
	Shard string
	// Err is the underlying failure (replica error, decode error, budget
	// expiry of the shard's own attempt).
	Err error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("corpus: shard %s: %v", e.Shard, e.Err)
}

// Unwrap exposes the underlying failure so errors.Is/As keep working
// (context errors, quarantine sentinels).
func (e *ShardError) Unwrap() error { return e.Err }
