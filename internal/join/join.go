// Package join implements twig-pattern evaluation over tag streams.  Six
// algorithms share one Match model and one assembly phase:
//
//   - NestedLoop — a direct recursive matcher: the correctness oracle every
//     other algorithm is tested against, and the naive baseline of E2.
//   - Structural — binary structural joins per query edge (stack-merge,
//     Al-Khalifa et al.), then assembly; the classical decomposed baseline.
//   - PathStack — one PathStack run per root-to-leaf path (Bruno et al.),
//     merging the per-path solutions; intermediate solutions are not
//     twig-pruned, which experiment E3 measures.
//   - TwigStack — the holistic twig join with getNext; optimal (no useless
//     intermediate path solutions) for ancestor-descendant-only queries.
//   - TwigStackLA — TwigStack with parent-child look-ahead pruning, our
//     rendition of TwigStackList (Lu, Chen, Ling); see lookahead.go.
//   - TJFast — leaf-streams-only evaluation over extended Dewey labels
//     (Lu et al., VLDB 2005); see tjfast.go.
//
// Algorithm("auto") picks among them from the query's shape and the index's
// statistics (see Choose).  Value predicates are pushed below every
// algorithm as filtered streams; parent-child edges are enforced during
// solution expansion and assembly (TwigStack is only A-D-optimal, as the
// paper notes); order constraints are a post-filter over assembled matches.
package join

import (
	"context"
	"fmt"
	"sort"

	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// Algorithm selects a twig evaluation strategy.
type Algorithm string

// The implemented algorithms.
const (
	NestedLoop Algorithm = "nestedloop"
	Structural Algorithm = "structural"
	PathStack  Algorithm = "pathstack"
	TwigStack  Algorithm = "twigstack"
	TJFast     Algorithm = "tjfast"
	// TwigStackLA is TwigStack with parent-child look-ahead pruning (our
	// rendition of TwigStackList; see lookahead.go).
	TwigStackLA Algorithm = "twigstack-la"
	// Auto picks among the above from the query's shape and the index's
	// statistics; see Choose.
	Auto Algorithm = "auto"
)

// Algorithms lists all concrete algorithms, oracle first.
var Algorithms = []Algorithm{NestedLoop, Structural, PathStack, TwigStack, TwigStackLA, TJFast}

// Match assigns a document node to every query node; it is indexed by query
// node ID (preorder).
type Match []doc.NodeID

// Stats reports evaluation effort, the currency of experiments E2–E4.
type Stats struct {
	// ElementsScanned counts stream elements consumed.
	ElementsScanned int
	// ElementsPushed counts elements pushed onto algorithm stacks
	// (PathStack, TwigStack and variants).
	ElementsPushed int
	// PathSolutions counts intermediate root-to-leaf path solutions emitted
	// before merging (PathStack, TwigStack).
	PathSolutions int
	// EdgePairs counts structural-join result pairs across edges
	// (Structural).
	EdgePairs int
	// MatchesEnumerated counts full twig matches before order filtering.
	MatchesEnumerated int
}

// Add accumulates o into s — summing per-shard statistics when a query fans
// out across a corpus.
func (s *Stats) Add(o Stats) {
	s.ElementsScanned += o.ElementsScanned
	s.ElementsPushed += o.ElementsPushed
	s.PathSolutions += o.PathSolutions
	s.EdgePairs += o.EdgePairs
	s.MatchesEnumerated += o.MatchesEnumerated
}

// Options tunes evaluation.
type Options struct {
	// MaxMatches caps the number of enumerated matches; 0 means unlimited.
	// The cap bounds worst-case cross products on highly repetitive data.
	MaxMatches int
	// Ctx, when non-nil, is polled cooperatively inside every algorithm's
	// scan and enumeration loops; once it is cancelled or past its deadline,
	// Run stops mid-join and returns the context's error.  A nil Ctx never
	// cancels.
	Ctx context.Context
}

// Result is the outcome of one evaluation.
type Result struct {
	// Matches holds full twig matches in a deterministic order.
	Matches []Match
	// Capped reports that MaxMatches stopped enumeration early.
	Capped bool
	// Stats reports evaluation effort.
	Stats Stats
	// Algorithm is the algorithm that actually ran (Auto resolved).
	Algorithm Algorithm
}

// OutputNodes projects the matches onto the query's output node,
// deduplicated, in document order.
func (r *Result) OutputNodes(q *twig.Query) []doc.NodeID {
	out := q.OutputNode().ID
	seen := make(map[doc.NodeID]struct{}, len(r.Matches))
	var nodes []doc.NodeID
	for _, m := range r.Matches {
		n := m[out]
		if _, dup := seen[n]; !dup {
			seen[n] = struct{}{}
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	return nodes
}

// Run evaluates q over ix with the chosen algorithm.  The query must be
// normalized (twig.Parse normalizes; programmatic queries call Normalize).
func Run(ix *index.Index, q *twig.Query, alg Algorithm, opts Options) (*Result, error) {
	if q.Len() == 0 {
		return nil, fmt.Errorf("join: query not normalized")
	}
	if alg == Auto {
		alg = Choose(ix, q)
	}
	ev := &evaluator{ix: ix, q: q, opts: opts, ctx: opts.Ctx, scr: getScratch()}
	defer ev.scr.release()
	var sp *obs.Span
	if ev.ctx != nil {
		// Fail fast on a context that is already dead — a request whose
		// deadline expired in middleware never starts the join at all.
		if err := ev.ctx.Err(); err != nil {
			return nil, err
		}
		// One span per evaluation, named after the resolved algorithm; a
		// traced request sees every join (the original query's and each
		// rewrite's) as its own timed node with its effort statistics.
		sp = obs.StartLeaf(ev.ctx, "join:"+string(alg))
		defer func() {
			sp.SetInt("scanned", ev.stats.ElementsScanned)
			sp.SetInt("matches", ev.stats.MatchesEnumerated)
			if ev.capped {
				sp.Set("capped", "true")
			}
			sp.End()
		}()
	}
	ev.buildStreams()
	if err := ev.dispatch(alg); err != nil {
		sp.SetErr(err)
		return nil, err
	}
	if ev.err != nil {
		sp.SetErr(ev.err)
		return nil, ev.err
	}
	ev.filterOrder()
	ev.sortMatches()
	return &Result{Matches: ev.matches, Capped: ev.capped, Stats: ev.stats, Algorithm: alg}, nil
}

// evaluator carries the state shared by all algorithms.
type evaluator struct {
	ix      *index.Index
	q       *twig.Query
	opts    Options
	ctx     context.Context // nil means never cancelled
	ticks   int             // work units since the last context poll
	err     error           // sticky context error once cancelled
	nodes   [][]doc.NodeID  // per query node ID: its filtered stream contents
	matches []Match
	capped  bool
	stats   Stats
	scr     *scratch // pooled working buffers, released when Run returns
	// matchArena backs the Match copies in matches.  It escapes into Result,
	// so unlike scr it is never pooled.
	matchArena []doc.NodeID
}

// dispatch runs the chosen concrete algorithm over the streams already
// built into ev.nodes.
func (ev *evaluator) dispatch(alg Algorithm) error {
	switch alg {
	case NestedLoop:
		return ev.runNestedLoop()
	case Structural:
		return ev.runStructural()
	case PathStack:
		return ev.runPathStack()
	case TwigStack:
		return ev.runTwigStack()
	case TwigStackLA:
		return ev.runTwigStackLA()
	case TJFast:
		return ev.runTJFast()
	default:
		return fmt.Errorf("join: unknown algorithm %q", alg)
	}
}

// cancelEvery is how many work units pass between context polls; polling
// sparsely keeps the check off the per-element fast path.
const cancelEvery = 1024

// tick counts one unit of evaluation work and polls the context every
// cancelEvery units.  It reports whether evaluation may continue; once it
// returns false, ev.err carries the context's error and stays set.
func (ev *evaluator) tick() bool {
	if ev.err != nil {
		return false
	}
	if ev.ctx == nil {
		return true
	}
	ev.ticks++
	if ev.ticks < cancelEvery {
		return true
	}
	ev.ticks = 0
	if err := ev.ctx.Err(); err != nil {
		ev.err = err
		return false
	}
	return true
}

// buildStreams materializes one document-order node list per query node with
// the node's tag, predicate and (for the root) axis constraints pushed down.
func (ev *evaluator) buildStreams() {
	d := ev.ix.Document()
	ev.nodes = make([][]doc.NodeID, ev.q.Len())
	for _, qn := range ev.q.Nodes() {
		var base []doc.NodeID
		if qn.IsWildcard() {
			base = ev.ix.AllElements()
		} else {
			base = ev.ix.Nodes(d.Tags().ID(qn.Tag))
		}
		keep, hint := ev.nodeFilter(qn)
		if keep == nil {
			ev.nodes[qn.ID] = base
			continue
		}
		// The filtered stream is no larger than the base stream or the
		// smallest predicate posting list; size it once instead of growing.
		capHint := len(base)
		if hint >= 0 && hint < capHint {
			capHint = hint
		}
		filtered := make([]doc.NodeID, 0, capHint)
		for _, n := range base {
			if keep(n) {
				filtered = append(filtered, n)
			}
		}
		ev.nodes[qn.ID] = filtered
	}
}

// stream returns a fresh cursor over query node qid's node list.
func (ev *evaluator) stream(qid int) *index.Stream {
	return index.NewStream(ev.ix.Document(), ev.nodes[qid])
}

// nodeFilter returns the per-node predicate for qn, or nil when none
// applies, plus a cardinality hint — the size of the smallest predicate
// posting list, or -1 when no predicate bounds the survivor count.
func (ev *evaluator) nodeFilter(qn *twig.Node) (func(doc.NodeID) bool, int) {
	d := ev.ix.Document()
	hint := -1
	var preds []func(doc.NodeID) bool
	if qn.Parent() == nil && qn.Axis == twig.Child {
		// A rooted query (/tag): the match must be the document root.
		preds = append(preds, func(n doc.NodeID) bool { return d.Parent(n) == doc.None })
		hint = 1
	}
	addSet := func(nodes []doc.NodeID) {
		if hint < 0 || len(nodes) < hint {
			hint = len(nodes)
		}
		set := toSet(nodes)
		preds = append(preds, func(n doc.NodeID) bool { _, ok := set[n]; return ok })
	}
	switch qn.Pred.Op {
	case twig.Eq:
		addSet(ev.ix.ExactMatches(qn.Pred.Value))
	case twig.Contains:
		addSet(ev.ix.ContainsAll(qn.Pred.Value))
	}
	switch len(preds) {
	case 0:
		return nil, hint
	case 1:
		return preds[0], hint
	default:
		return func(n doc.NodeID) bool {
			for _, p := range preds {
				if !p(n) {
					return false
				}
			}
			return true
		}, hint
	}
}

func toSet(nodes []doc.NodeID) map[doc.NodeID]struct{} {
	s := make(map[doc.NodeID]struct{}, len(nodes))
	for _, n := range nodes {
		s[n] = struct{}{}
	}
	return s
}

// edgeHolds checks the axis constraint of query node qc against candidate
// parent/ancestor p and child/descendant c.
func (ev *evaluator) edgeHolds(qc *twig.Node, p, c doc.NodeID) bool {
	d := ev.ix.Document()
	if qc.Axis == twig.Child {
		return d.Region(p).IsParent(d.Region(c))
	}
	return d.Region(p).IsAncestor(d.Region(c))
}

// addMatch appends a copy of m, honouring the cap and the context.  It
// reports whether enumeration may continue.
func (ev *evaluator) addMatch(m Match) bool {
	if !ev.tick() {
		return false
	}
	if ev.opts.MaxMatches > 0 && len(ev.matches) >= ev.opts.MaxMatches {
		ev.capped = true
		return false
	}
	// Copy m into the match arena: one growing backing array instead of one
	// allocation per match.  Earlier matches keep pointing into whatever
	// array they were appended to, so growth never invalidates them; the
	// cap keeps later appends from aliasing this copy.
	n := len(ev.matchArena)
	ev.matchArena = append(ev.matchArena, m...)
	ev.matches = append(ev.matches, Match(ev.matchArena[n:len(ev.matchArena):len(ev.matchArena)]))
	ev.stats.MatchesEnumerated++
	if ev.opts.MaxMatches > 0 && len(ev.matches) >= ev.opts.MaxMatches {
		// Stopping at the cap: further matches may exist but were not
		// enumerated.
		ev.capped = true
		return false
	}
	return true
}

// filterOrder drops matches violating the query's order constraints.
func (ev *evaluator) filterOrder() {
	if len(ev.q.Order) == 0 {
		return
	}
	d := ev.ix.Document()
	kept := ev.matches[:0]
	for _, m := range ev.matches {
		ok := true
		for _, oc := range ev.q.Order {
			if !d.Region(m[oc.Before]).Before(d.Region(m[oc.After])) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, m)
		}
	}
	ev.matches = kept
}

// sortMatches puts matches in a deterministic lexicographic order so every
// algorithm reports the same sequence.
func (ev *evaluator) sortMatches() {
	sort.Slice(ev.matches, func(i, j int) bool {
		a, b := ev.matches[i], ev.matches[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}
