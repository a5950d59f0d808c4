package corpus

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/join"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// Twig search across shards: fan-out and global merge.
//
// SearchHits pins one snapshot and scatters the normalized query over its
// shards under the shard call discipline (scatter.go); each local shard
// evaluates its own clone (twig evaluation mutates stack state keyed by node
// IDs; Clone yields an identical normalized tree, so per-shard answers speak
// the same ID space).
//
// Per-shard results then merge into one globally ranked page: every exact
// answer outranks every rewrite answer (matching single-engine semantics),
// exacts order by score, rewrites by penalty then score, with shard/node as
// deterministic tie-breaks.  The paging contract (Total/Exact/nextOffset)
// is computed over surviving shards only, so it holds verbatim for partial
// answers.

// SearchHits implements core.Backend over the pinned snapshot.
func (c *Corpus) SearchHits(ctx context.Context, q *twig.Query, opts core.SearchOptions) (*core.HitResult, error) {
	start := time.Now()
	snap := c.Snapshot()
	if len(snap.shards) == 0 {
		return nil, fmt.Errorf("corpus: %s has no shards", c.name)
	}
	if err := q.Normalize(); err != nil {
		return nil, err
	}
	// One canonicalization, shared with the single-engine path and the cache
	// key builder: see core.SearchOptions.Canonical.
	opts = opts.Canonical()
	// Every shard materializes the full global page prefix: the merged
	// page's contents can come from any single shard in the worst case.
	want := opts.K + opts.Offset
	shardOpts := opts
	shardOpts.K = want
	shardOpts.Offset = 0 // paging happens after the global merge

	fanSpan, fanCtx := obs.Start(ctx, "fanout")
	got, failed, err := scatter(fanCtx, c, snap, FaultShardSearch, true, func(ctx context.Context, be ShardBackend) (*ShardPage, error) {
		page, err := be.SearchShard(ctx, q, shardOpts)
		if err == nil {
			ssp := obs.FromContext(ctx)
			ssp.SetInt("hits", len(page.Answers))
			if len(page.PartialShards) > 0 {
				ssp.Set("partialShards", strings.Join(page.PartialShards, ","))
			}
		}
		return page, err
	})
	direct := len(failed)
	pages := make([]*ShardPage, len(got))
	for i, g := range got {
		name := snap.shards[i].name
		// The always-on twin of the shard span: one latency observation per
		// shard called, whether or not anyone asked for a trace.
		if c.met != nil && g.took > 0 {
			snap.shards[i].latency.Observe(g.took)
		}
		pages[i] = g.val
		if g.val == nil {
			continue
		}
		// A remote shard server may itself have answered degraded; surface its
		// failed sub-shards (prefixed with the shard's name) so the router's
		// clients see exactly how partial the merged page is.
		for _, sub := range g.val.PartialShards {
			failed = append(failed, name+"/"+sub)
		}
	}
	if c.met != nil {
		c.met.ShardFailures.Add(int64(direct))
	}
	if len(failed) > direct {
		sort.Strings(failed)
		fanSpan.Set("partial", "true")
		fanSpan.Set("failedShards", strings.Join(failed, ","))
	}
	fanSpan.SetErr(err)
	fanSpan.End()
	if err != nil {
		return nil, err
	}
	fanoutDone := time.Now()

	mergeSpan := obs.StartLeaf(ctx, "merge")
	out := c.merge(pages, opts, want)
	mergeSpan.SetInt("hits", len(out.Hits))
	mergeSpan.End()
	out.Shards = len(snap.shards)
	out.Partial = len(failed) > 0
	out.FailedShards = failed
	out.Elapsed = time.Since(start)

	if c.met != nil {
		c.met.Searches.Add(1)
		if out.Partial {
			c.met.Partial.Add(1)
		}
		c.met.Fanout.Observe(fanoutDone.Sub(start))
		c.met.Merge.Observe(time.Since(fanoutDone))
	}
	return out, nil
}

// mergedAnswer pairs a per-shard answer with its origin for global ranking.
type mergedAnswer struct {
	shard int // index into the page slice (snapshot shard order)
	ans   ShardAnswer
}

// merge fuses per-shard pages into one globally ranked, paged HitResult,
// rendering only the surviving page (ShardAnswer.Render — lazy snippet
// materialization for local shards, wire replay for remote ones).  Failed
// shards have nil entries in pages and simply contribute nothing — the
// ranking and paging arithmetic is identical for whole and partial answers.
func (c *Corpus) merge(pages []*ShardPage, opts core.SearchOptions, want int) *core.HitResult {
	out := &core.HitResult{}
	var exacts, rewrites []mergedAnswer
	algo := ""
	for i, page := range pages {
		if page == nil {
			continue
		}
		out.RewritesTried += page.RewritesTried
		out.Stats.Add(page.Stats)
		switch algo {
		case "":
			algo = string(page.Algorithm)
		case string(page.Algorithm):
		default:
			algo = "mixed"
		}
		for j, a := range page.Answers {
			ma := mergedAnswer{shard: i, ans: a}
			if j < page.Exact {
				exacts = append(exacts, ma)
			} else {
				rewrites = append(rewrites, ma)
			}
		}
	}
	out.Algorithm = join.Algorithm(algo)

	// Exact answers: score descending; shard then node break ties so pages
	// are stable across identical snapshots.
	sort.SliceStable(exacts, func(i, j int) bool {
		a, b := exacts[i], exacts[j]
		if a.ans.Score != b.ans.Score {
			return a.ans.Score > b.ans.Score
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.ans.Node < b.ans.Node
	})
	// Rewrite answers rank below all exacts: penalty ascending, then score.
	sort.SliceStable(rewrites, func(i, j int) bool {
		a, b := rewrites[i], rewrites[j]
		if a.ans.Penalty != b.ans.Penalty {
			return a.ans.Penalty < b.ans.Penalty
		}
		if a.ans.Score != b.ans.Score {
			return a.ans.Score > b.ans.Score
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.ans.Node < b.ans.Node
	})

	merged := append(exacts, rewrites...)
	// Match single-engine paging: Total stops counting at want, so
	// Total == Offset+K keeps meaning "further pages may exist".
	if len(merged) > want {
		merged = merged[:want]
	}
	out.Total = len(merged)
	exactCount := len(exacts)
	if exactCount > want {
		exactCount = want
	}
	out.Exact = exactCount - opts.Offset
	if out.Exact < 0 {
		out.Exact = 0
	}
	if opts.Offset >= len(merged) {
		merged = nil
	} else {
		merged = merged[opts.Offset:]
	}

	snippetMax := opts.SnippetMax // already resolved by Canonical in SearchHits
	for _, ma := range merged {
		out.Hits = append(out.Hits, ma.ans.Render(snippetMax))
	}
	return out
}
