package join

import (
	"lotusx/internal/index"
	"lotusx/internal/twig"
)

// Choose selects a concrete algorithm for q from its shape and the index's
// statistics — the planner behind Algorithm("auto").  The heuristics encode
// what experiments E2/E3 show on this codebase:
//
//   - Single-node queries are stream dumps; any algorithm works, NestedLoop
//     has the least setup.
//   - When the leaf streams are small relative to the internal streams,
//     TJFast wins outright: it never reads the internal streams.
//   - Pure paths (no branching) suit PathStack — TwigStack degenerates to
//     it with extra bookkeeping.
//   - Branching twigs default to TwigStack: its getNext pruning bounds the
//     intermediate results no decomposed strategy can.
func Choose(ix *index.Index, q *twig.Query) Algorithm {
	if q.Len() == 0 {
		// Unnormalized queries error out in Run; any concrete choice works.
		return TwigStack
	}
	if q.Len() == 1 {
		return NestedLoop
	}

	internal, leaves := 0, 0
	branching := false
	for _, qn := range q.Nodes() {
		size := EstimateStream(ix, qn)
		if qn.IsLeaf() {
			leaves += size
		} else {
			internal += size
			if len(qn.Children) > 1 {
				branching = true
			}
		}
	}
	// Leaf streams an order of magnitude smaller than the internal work:
	// reading only leaves pays for the per-element path walks.
	if leaves*10 < internal {
		return TJFast
	}
	if !branching {
		return PathStack
	}
	return TwigStack
}

// EstimateStream estimates the stream size of one query node under the
// index: the tag count shrunk by the value predicate's selectivity (token
// document frequencies, independence-style).
func EstimateStream(ix *index.Index, qn *twig.Node) int {
	var base int
	if qn.IsWildcard() {
		base = len(ix.AllElements())
	} else {
		base = ix.TagCount(ix.Document().Tags().ID(qn.Tag))
	}
	if base == 0 || qn.Pred.Op == twig.NoPred {
		return base
	}
	total := ix.ValuedNodes()
	if total == 0 {
		return 0
	}
	sel := 1.0
	for _, tok := range index.Tokenize(qn.Pred.Value) {
		sel *= float64(ix.DF(tok)) / float64(total)
	}
	if qn.Pred.Op == twig.Eq {
		// Equality is stricter than containing every token.
		sel *= 0.5
	}
	est := int(float64(base) * sel)
	if est < 1 {
		est = 1 // a predicate never proves emptiness without evaluation
	}
	return est
}

// EstimateMatches gives a coarse upper-bound estimate of a query's match
// count: the minimum stream estimate along each root-to-leaf path, summed
// over leaves.  The engine uses it to decide whether rewriting is likely
// needed before paying for evaluation.
func EstimateMatches(ix *index.Index, q *twig.Query) int {
	if q.Len() == 0 {
		return 0
	}
	total := 0
	for _, path := range rootPaths(q) {
		min := -1
		for _, qn := range path {
			est := EstimateStream(ix, qn)
			if min == -1 || est < min {
				min = est
			}
		}
		total += min
	}
	return total
}
