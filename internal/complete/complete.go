// Package complete implements LotusX's position-aware auto-completion, the
// system's headline feature: as the user grows a twig query node by node,
// the engine proposes — for the specific position being edited — the tags
// and text values that actually occur there in the data, ranked by
// positional frequency, with fuzzy fallback for typos.
//
// Position-awareness comes from the DataGuide: the chain of (axis, tag)
// constraints from the twig root to the edited position selects a set of
// guide nodes (the position's contexts), and candidates are drawn only from
// what occurs under those contexts.  The package also exposes the naive
// baseline (global tries, no position filter) that experiments E5/E6
// compare against.
package complete

import (
	"context"
	"sort"
	"strings"

	"lotusx/internal/dataguide"
	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// checkEvery is how many scanned candidates pass between context polls in
// the context-aware entry points.
const checkEvery = 512

// canceller polls a context sparsely during candidate scans.  A nil
// canceller (the context-free entry points) never cancels.
type canceller struct {
	ctx context.Context
	n   int
	err error
}

// ok reports whether the scan may continue; once false, err is sticky.
func (c *canceller) ok() bool {
	if c == nil {
		return true
	}
	if c.err != nil {
		return false
	}
	c.n++
	if c.n < checkEvery {
		return true
	}
	c.n = 0
	if err := c.ctx.Err(); err != nil {
		c.err = err
		return false
	}
	return true
}

// fail returns the context error observed during a scan, if any.
func (c *canceller) fail() error {
	if c == nil {
		return nil
	}
	return c.err
}

// Kind distinguishes candidate types.
type Kind uint8

const (
	// TagCandidate proposes an element or attribute tag.
	TagCandidate Kind = iota
	// ValueCandidate proposes a text value.
	ValueCandidate
)

// Candidate is one ranked suggestion.
type Candidate struct {
	Text string
	// Count is the candidate's occurrence count at the suggested position
	// (or globally, for the naive engine).
	Count int64
	Kind  Kind
	// Fuzzy marks candidates found by edit-distance fallback rather than
	// exact prefix match.
	Fuzzy bool
}

// NewRoot is the anchor value meaning "the user is creating the query's
// root node".
const NewRoot = -1

// Engine answers completion requests over one indexed document.
type Engine struct {
	ix    *index.Index
	guide *dataguide.Guide
}

// New returns an Engine over the given index and guide.
func New(ix *index.Index, guide *dataguide.Guide) *Engine {
	return &Engine{ix: ix, guide: guide}
}

// pathSteps converts the root-to-anchor chain of the partial twig into
// DataGuide steps.
func pathSteps(q *twig.Query, anchorID int) []dataguide.Step {
	var chain []*twig.Node
	for n := q.Node(anchorID); n != nil; n = n.Parent() {
		chain = append(chain, n)
	}
	steps := make([]dataguide.Step, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		steps = append(steps, dataguide.Step{Axis: chain[i].Axis, Tag: chain[i].Tag})
	}
	return steps
}

// AnchorChain renders the root-to-anchor (axis, tag) chain of the partial
// twig as a canonical string — the exact inputs pathSteps derives the
// position's contexts from, and the only part of q that positional
// completion reads (value completion additionally reads the anchor's own
// tag/wildcard flag, which is the chain's last step).  Two queries with the
// same chain therefore complete identically, which is what makes the string
// usable as a cache-key component (internal/cache).  anchorID == NewRoot
// (or a nil q) renders the empty chain.
func AnchorChain(q *twig.Query, anchorID int) string {
	if q == nil || anchorID == NewRoot {
		return "^"
	}
	var b strings.Builder
	b.WriteByte('^')
	for _, s := range pathSteps(q, anchorID) {
		if s.Axis == twig.Descendant {
			b.WriteString("//")
		} else {
			b.WriteByte('/')
		}
		b.WriteString(s.Tag)
	}
	return b.String()
}

// SuggestTags proposes tags for a new node attached under the twig node
// anchorID via axis, matching prefix, at most k, ranked by how often the tag
// occurs at that position.  anchorID == NewRoot proposes tags for the query
// root itself.  When no feasible tag matches the prefix exactly, candidates
// within edit distance 1 are returned with Fuzzy set.
func (e *Engine) SuggestTags(q *twig.Query, anchorID int, axis twig.Axis, prefix string, k int) []Candidate {
	out, _ := e.suggestTags(nil, q, anchorID, axis, prefix, k)
	return out
}

// SuggestTagsContext is SuggestTags with cooperative cancellation: the scan
// over feasible tags polls ctx and stops with its error once the request is
// cancelled or past its deadline.
func (e *Engine) SuggestTagsContext(ctx context.Context, q *twig.Query, anchorID int, axis twig.Axis, prefix string, k int) ([]Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.StartLeaf(ctx, "complete:tags")
	out, err := e.suggestTags(&canceller{ctx: ctx}, q, anchorID, axis, prefix, k)
	sp.SetInt("candidates", len(out))
	sp.SetErr(err)
	sp.End()
	return out, err
}

func (e *Engine) suggestTags(c *canceller, q *twig.Query, anchorID int, axis twig.Axis, prefix string, k int) ([]Candidate, error) {
	feasible := e.feasibleTags(q, anchorID, axis)
	if len(feasible) == 0 {
		return nil, nil
	}
	out := filterTagCandidates(c, e.ix.Document().Tags(), feasible, prefix, k)
	if len(out) == 0 && prefix != "" && c.fail() == nil {
		out = e.fuzzyTagCandidates(c, feasible, prefix, k)
	}
	if err := c.fail(); err != nil {
		return nil, err
	}
	return out, nil
}

// feasibleTags computes the position-feasible tag set with occurrence
// counts.
func (e *Engine) feasibleTags(q *twig.Query, anchorID int, axis twig.Axis) map[doc.TagID]int {
	if anchorID == NewRoot {
		tags := make(map[doc.TagID]int)
		if axis == twig.Child {
			root := e.guide.Root()
			tags[root.Tag] = root.Count
			return tags
		}
		root := e.guide.Root()
		tags[root.Tag] = root.Count
		for t, c := range root.SubtreeTagCounts() {
			tags[t] += c
		}
		return tags
	}
	contexts := e.guide.FindContext(pathSteps(q, anchorID))
	if len(contexts) == 0 {
		return nil
	}
	return e.guide.CandidateTags(contexts, axis)
}

func filterTagCandidates(c *canceller, dict *doc.TagDict, feasible map[doc.TagID]int, prefix string, k int) []Candidate {
	lower := strings.ToLower(prefix)
	var out []Candidate
	for tag, count := range feasible {
		if !c.ok() {
			break
		}
		name := dict.Name(tag)
		if lower != "" && !strings.HasPrefix(strings.ToLower(name), lower) {
			continue
		}
		out = append(out, Candidate{Text: name, Count: int64(count), Kind: TagCandidate})
	}
	sortCandidates(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// fuzzyTagCandidates matches the prefix against feasible tag names with one
// edit of slack.
func (e *Engine) fuzzyTagCandidates(c *canceller, feasible map[doc.TagID]int, prefix string, k int) []Candidate {
	dict := e.ix.Document().Tags()
	lower := strings.ToLower(prefix)
	var out []Candidate
	for tag, count := range feasible {
		if !c.ok() {
			break
		}
		name := dict.Name(tag)
		ln := strings.ToLower(name)
		if len(ln) > len(lower) {
			ln = ln[:len(lower)+1] // prefix distance: compare against a same-ish-length prefix
		}
		if editDistanceAtMost(ln, lower, 1) {
			out = append(out, Candidate{Text: name, Count: int64(count), Kind: TagCandidate, Fuzzy: true})
		}
	}
	sortCandidates(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// SuggestValues proposes text values for the twig node nodeID, matching
// prefix, at most k, ranked by positional frequency.  When the position's
// value sample was truncated (free-text paths), it falls back to the node
// tag's global value trie, degrading gracefully from path-level to
// tag-level completion.
func (e *Engine) SuggestValues(q *twig.Query, nodeID int, prefix string, k int) []Candidate {
	out, _ := e.suggestValues(nil, q, nodeID, prefix, k)
	return out
}

// SuggestValuesContext is SuggestValues with cooperative cancellation,
// polling ctx during the candidate-value scan.
func (e *Engine) SuggestValuesContext(ctx context.Context, q *twig.Query, nodeID int, prefix string, k int) ([]Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.StartLeaf(ctx, "complete:values")
	out, err := e.suggestValues(&canceller{ctx: ctx}, q, nodeID, prefix, k)
	sp.SetInt("candidates", len(out))
	sp.SetErr(err)
	sp.End()
	return out, err
}

func (e *Engine) suggestValues(c *canceller, q *twig.Query, nodeID int, prefix string, k int) ([]Candidate, error) {
	contexts := e.guide.FindContext(pathSteps(q, nodeID))
	if len(contexts) == 0 {
		return nil, nil
	}
	lower := strings.ToLower(prefix)
	var out []Candidate
	for _, vc := range e.guide.CandidateValues(contexts) {
		if !c.ok() {
			return nil, c.fail()
		}
		if lower != "" && !strings.HasPrefix(vc.Value, lower) {
			continue
		}
		out = append(out, Candidate{Text: vc.Value, Count: int64(vc.Count), Kind: ValueCandidate})
	}
	truncated := false
	for _, gn := range contexts {
		if gn.ValuesTruncated() {
			truncated = true
			break
		}
	}
	if truncated && len(out) < k {
		out = e.mergeTagLevelValues(q, nodeID, lower, k, out)
	}
	sortCandidates(out)
	if len(out) > k {
		out = out[:k]
	}
	return out, nil
}

// mergeTagLevelValues adds tag-level trie completions not already present.
func (e *Engine) mergeTagLevelValues(q *twig.Query, nodeID int, lower string, k int, out []Candidate) []Candidate {
	qn := q.Node(nodeID)
	if qn.IsWildcard() {
		return out
	}
	tag := e.ix.Document().Tags().ID(qn.Tag)
	vt := e.ix.ValueTrie(tag)
	if vt == nil {
		return out
	}
	seen := make(map[string]struct{}, len(out))
	for _, c := range out {
		seen[c.Text] = struct{}{}
	}
	for _, entry := range vt.Complete(lower, k) {
		if _, dup := seen[entry.Word]; dup {
			continue
		}
		out = append(out, Candidate{Text: entry.Word, Count: entry.Weight, Kind: ValueCandidate})
	}
	return out
}

// Occurrence explains where a suggested tag occurs relative to the edited
// position: one label path plus its count.
type Occurrence struct {
	Path  string
	Count int
}

// ExplainTag reports the label paths at which tag occurs under the given
// position — what the GUI shows when the user hovers a candidate ("author:
// 608× at /dblp/inproceedings/author, ...").  Paths come back most frequent
// first, capped at max (0 means all).
func (e *Engine) ExplainTag(q *twig.Query, anchorID int, axis twig.Axis, tag string, max int) []Occurrence {
	occs, _ := e.explainTag(nil, q, anchorID, axis, tag, max)
	return occs
}

// ExplainTagContext is ExplainTag with cooperative cancellation, polling
// ctx during the DataGuide subtree walks.
func (e *Engine) ExplainTagContext(ctx context.Context, q *twig.Query, anchorID int, axis twig.Axis, tag string, max int) ([]Occurrence, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.StartLeaf(ctx, "complete:explain")
	out, err := e.explainTag(&canceller{ctx: ctx}, q, anchorID, axis, tag, max)
	sp.SetInt("paths", len(out))
	sp.SetErr(err)
	sp.End()
	return out, err
}

func (e *Engine) explainTag(c *canceller, q *twig.Query, anchorID int, axis twig.Axis, tag string, max int) ([]Occurrence, error) {
	tagID := e.ix.Document().Tags().ID(tag)
	if tagID == doc.NoTag {
		return nil, nil
	}
	var occs []Occurrence
	tags := e.ix.Document().Tags()
	seen := make(map[*dataguide.Node]struct{})
	add := func(gn *dataguide.Node) {
		if gn.Tag != tagID {
			return
		}
		if _, dup := seen[gn]; dup {
			return
		}
		seen[gn] = struct{}{}
		occs = append(occs, Occurrence{Path: gn.Path(tags), Count: gn.Count})
	}
	walkSubtree := func(ctx *dataguide.Node) {
		var walk func(n *dataguide.Node)
		walk = func(n *dataguide.Node) {
			if !c.ok() {
				return
			}
			for _, ch := range n.Children {
				add(ch)
				walk(ch)
			}
		}
		walk(ctx)
	}

	if anchorID == NewRoot {
		// A new query root: Child anchors at the document root; Descendant
		// matches the root element or anything below it.
		add(e.guide.Root())
		if axis == twig.Descendant {
			walkSubtree(e.guide.Root())
		}
	} else {
		for _, gctx := range e.guide.FindContext(pathSteps(q, anchorID)) {
			switch axis {
			case twig.Child:
				if child := gctx.Children[tagID]; child != nil {
					add(child)
				}
			case twig.Descendant:
				walkSubtree(gctx)
			}
		}
	}
	if err := c.fail(); err != nil {
		return nil, err
	}
	sort.Slice(occs, func(i, j int) bool {
		if occs[i].Count != occs[j].Count {
			return occs[i].Count > occs[j].Count
		}
		return occs[i].Path < occs[j].Path
	})
	if max > 0 && len(occs) > max {
		occs = occs[:max]
	}
	return occs, nil
}

// SuggestTagsNaive is the position-blind baseline: global tag-trie prefix
// completion ranked by global frequency, case-insensitive like SuggestTags.
// When no tag matches the prefix, candidates within edit distance 1 are
// returned with Fuzzy set.  Tags whose names differ only in case are one
// candidate, named by the first of them.  Experiments E5/E6 compare it with
// SuggestTags.
func (e *Engine) SuggestTagsNaive(prefix string, k int) []Candidate {
	lower := strings.ToLower(prefix)
	entries, fuzzy := e.ix.TagTrie().Complete(lower, k), false
	if len(entries) == 0 && prefix != "" {
		entries, fuzzy = e.ix.TagTrie().FuzzyComplete(lower, 1, k), true
	}
	tags := e.ix.Document().Tags()
	out := make([]Candidate, 0, len(entries))
	for _, en := range entries {
		out = append(out, Candidate{Text: tags.Name(doc.TagID(en.Datum)), Count: en.Weight, Kind: TagCandidate, Fuzzy: fuzzy})
	}
	return out
}

// SuggestValuesNaive is the position-blind value baseline: the node tag's
// global value trie, ignoring where in the twig the node sits.
func (e *Engine) SuggestValuesNaive(tagName, prefix string, k int) []Candidate {
	tag := e.ix.Document().Tags().ID(tagName)
	if tag == doc.NoTag {
		return nil
	}
	vt := e.ix.ValueTrie(tag)
	if vt == nil {
		return nil
	}
	entries := vt.Complete(strings.ToLower(prefix), k)
	out := make([]Candidate, 0, len(entries))
	for _, en := range entries {
		out = append(out, Candidate{Text: en.Word, Count: en.Weight, Kind: ValueCandidate})
	}
	return out
}

func sortCandidates(cs []Candidate) {
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].Count != cs[j].Count {
			return cs[i].Count > cs[j].Count
		}
		return cs[i].Text < cs[j].Text
	})
}

// editDistanceAtMost reports whether the Levenshtein distance between a and
// b is within max (a small-banded check; max is 1 in practice).
func editDistanceAtMost(a, b string, max int) bool {
	ra, rb := []rune(a), []rune(b)
	if abs(len(ra)-len(rb)) > max {
		return false
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		rowMin := cur[0]
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
			if cur[j] < rowMin {
				rowMin = cur[j]
			}
		}
		if rowMin > max {
			return false
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)] <= max
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
