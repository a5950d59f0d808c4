package corpus

import (
	"context"
	"sort"

	"lotusx/internal/complete"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// Completion across shards: every shard proposes candidates from its own
// DataGuide and tries — called under the shard call discipline (scatter.go),
// like a search — then the corpus merges them by summed weight.  A
// merged count sums the shards where the candidate surfaced; to keep the
// merged top k faithful to the whole-document ranking, each shard is asked
// for k×shards candidates (see mergeAskK) — a candidate would have to fall
// outside that widened cut on some shard for its merged count to run low.
// Fuzzy (edit-distance fallback) candidates only survive a merge that
// produced no exact-prefix candidates, matching the single-engine fallback
// rule.

// CompleteTags implements core.Backend.
func (c *Corpus) CompleteTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, prefix string, k int) ([]complete.Candidate, error) {
	return c.mergeCandidates(ctx, k, func(ctx context.Context, be ShardBackend, askK int) ([]complete.Candidate, error) {
		return be.CompleteTags(ctx, cloneQuery(q), anchor, axis, prefix, askK)
	})
}

// CompleteValues implements core.Backend.
func (c *Corpus) CompleteValues(ctx context.Context, q *twig.Query, focus int, prefix string, k int) ([]complete.Candidate, error) {
	return c.mergeCandidates(ctx, k, func(ctx context.Context, be ShardBackend, askK int) ([]complete.Candidate, error) {
		return be.CompleteValues(ctx, cloneQuery(q), focus, prefix, askK)
	})
}

// mergeAskKCap bounds the widened per-shard ask so a large k over a wide
// corpus cannot request an absurd candidate list from every shard.
const mergeAskKCap = 1 << 16

// mergeAskK widens the caller's k for the per-shard asks: a shard's top k
// is not the corpus's top k (a globally frequent candidate may be locally
// rare), so each shard is asked for k×shards candidates before the merge
// cuts back to k.
func mergeAskK(k, shards int) int {
	if k <= 0 || shards <= 1 {
		return k
	}
	askK := k * shards
	if askK/shards != k || askK > mergeAskKCap { // overflow or cap
		return mergeAskKCap
	}
	return askK
}

// cloneQuery hands each shard call its own copy of the (possibly nil)
// position query: Normalize mutates the tree.
func cloneQuery(q *twig.Query) *twig.Query {
	if q == nil {
		return nil
	}
	return q.Clone()
}

// mergeCandidates scatters ask over the pinned snapshot's shards — wide only
// when they are remote, each answering its k-widened ask in one round trip;
// a local shard's answer costs less than a second goroutine — and merges by
// (Text, Kind) with summed counts.
func (c *Corpus) mergeCandidates(ctx context.Context, k int, ask func(context.Context, ShardBackend, int) ([]complete.Candidate, error)) ([]complete.Candidate, error) {
	snap := c.Snapshot()
	sp, ctx := obs.Start(ctx, "complete:merge")
	defer sp.End()
	askK := mergeAskK(k, len(snap.shards))
	parts, _, err := scatter(ctx, c, snap, FaultShardComplete, c.remote, func(ctx context.Context, be ShardBackend) ([]complete.Candidate, error) {
		return ask(ctx, be, askK)
	})
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	type key struct {
		text string
		kind complete.Kind
	}
	acc := make(map[key]*complete.Candidate)
	for _, g := range parts {
		for _, cand := range g.val {
			kk := key{cand.Text, cand.Kind}
			if got := acc[kk]; got != nil {
				got.Count += cand.Count
				// Exact-prefix evidence from any shard outranks fuzzy.
				got.Fuzzy = got.Fuzzy && cand.Fuzzy
			} else {
				cc := cand
				acc[kk] = &cc
			}
		}
	}

	exactSeen := false
	for _, cand := range acc {
		if !cand.Fuzzy {
			exactSeen = true
			break
		}
	}
	out := make([]complete.Candidate, 0, len(acc))
	for _, cand := range acc {
		if cand.Fuzzy && exactSeen {
			continue // fuzzy fallback only when no shard had an exact match
		}
		out = append(out, *cand)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Text < out[j].Text
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// ExplainTags implements core.Backend: per-shard occurrences merge by label
// path with summed counts, most frequent path first.
func (c *Corpus) ExplainTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, tag string, max int) ([]complete.Occurrence, error) {
	snap := c.Snapshot()
	sp, ctx := obs.Start(ctx, "explain:merge")
	defer sp.End()
	parts, _, err := scatter(ctx, c, snap, FaultShardComplete, c.remote, func(ctx context.Context, be ShardBackend) ([]complete.Occurrence, error) {
		return be.ExplainTags(ctx, cloneQuery(q), anchor, axis, tag, 0)
	})
	if err != nil {
		sp.SetErr(err)
		return nil, err
	}
	acc := make(map[string]int)
	for _, g := range parts {
		for _, o := range g.val {
			acc[o.Path] += o.Count
		}
	}
	out := make([]complete.Occurrence, 0, len(acc))
	for p, n := range acc {
		out = append(out, complete.Occurrence{Path: p, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Path < out[j].Path
	})
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out, nil
}
