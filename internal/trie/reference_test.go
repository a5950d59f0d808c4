package trie

import (
	"container/heap"
	"fmt"
	"slices"
	"sort"
	"unicode/utf8"
)

// The reference: the map trie Build replaced, one map of child runes per
// node, grown one word at a time.  Each Insert descends from the root
// through one map lookup per rune, creates what is missing and raises
// maxWeight along the whole path; Complete explores best-first over those
// bounds and FuzzyComplete runs the trie × Levenshtein-row search over the
// nodes.  Every read of a built Trie must answer as this one does.

// Reference is a weighted rune trie of map nodes.
type Reference struct {
	root *node
	size int
}

type node struct {
	children map[rune]*node // nil until the first child arrives
	// entry payload; present iff terminal.
	weight   int64
	datum    int32
	terminal bool
	// maxWeight is the largest terminal weight in this subtree.
	maxWeight int64
}

// NewReference returns an empty Reference.
func NewReference() *Reference { return &Reference{root: newNode()} }

func newNode() *node { return &node{datum: -1} }

// Len returns the number of distinct words stored.
func (t *Reference) Len() int { return t.size }

// Insert adds word with the given weight and payload.  Inserting an existing
// word adds the weight to the stored weight (and keeps the existing payload),
// so repeated insertions accumulate occurrence counts.  An invalid UTF-8
// byte is the rune U+FFFD.
func (t *Reference) Insert(word string, weight int64, datum int32) {
	cur := t.root
	path := []*node{cur}
	for _, r := range word {
		next, ok := cur.children[r]
		if !ok {
			next = newNode()
			if cur.children == nil {
				cur.children = make(map[rune]*node)
			}
			cur.children[r] = next
		}
		cur = next
		path = append(path, cur)
	}
	if cur.terminal {
		cur.weight += weight
	} else {
		cur.terminal = true
		cur.weight = weight
		cur.datum = datum
		t.size++
	}
	for _, n := range path {
		if cur.weight > n.maxWeight {
			n.maxWeight = cur.weight
		}
	}
}

// Contains reports whether word was inserted.
func (t *Reference) Contains(word string) bool {
	n := t.descend(word)
	return n != nil && n.terminal
}

// Weight returns the accumulated weight of word, or 0 if absent.
func (t *Reference) Weight(word string) int64 {
	n := t.descend(word)
	if n == nil || !n.terminal {
		return 0
	}
	return n.weight
}

func (t *Reference) descend(prefix string) *node {
	cur := t.root
	for _, r := range prefix {
		next, ok := cur.children[r]
		if !ok {
			return nil
		}
		cur = next
	}
	return cur
}

// frontierItem is one unit of best-first exploration: either a subtree to
// expand (emit == false, bound == subtree max weight) or a concrete terminal
// to output (emit == true, bound == its exact weight).
type frontierItem struct {
	n      *node
	prefix string
	bound  int64
	emit   bool
}

type frontier []frontierItem

func (f frontier) Len() int { return len(f) }
func (f frontier) Less(i, j int) bool {
	if f[i].bound != f[j].bound {
		return f[i].bound > f[j].bound
	}
	return f[i].prefix < f[j].prefix // deterministic tie-break
}
func (f frontier) Swap(i, j int) { f[i], f[j] = f[j], f[i] }
func (f *frontier) Push(x any)   { *f = append(*f, x.(frontierItem)) }
func (f *frontier) Pop() any {
	old := *f
	n := len(old)
	it := old[n-1]
	*f = old[:n-1]
	return it
}

// Complete returns up to k words starting with prefix, heaviest first,
// ties broken lexicographically.  The words are spelled as stored: an
// invalid UTF-8 byte of prefix comes back as U+FFFD.
func (t *Reference) Complete(prefix string, k int) []Entry {
	if k <= 0 {
		return nil
	}
	start := t.descend(prefix)
	if start == nil {
		return nil
	}
	return completeNode(start, string([]rune(prefix)), k)
}

// completeNode runs best-first top-k completion from start, whose
// accumulated word so far is prefix.
func completeNode(start *node, prefix string, k int) []Entry {
	var out []Entry
	f := &frontier{{n: start, prefix: prefix, bound: start.maxWeight}}
	heap.Init(f)
	for f.Len() > 0 && len(out) < k {
		it := heap.Pop(f).(frontierItem)
		if it.emit {
			out = append(out, Entry{Word: it.prefix, Weight: it.bound, Datum: it.n.datum})
			continue
		}
		if it.n.terminal {
			heap.Push(f, frontierItem{n: it.n, prefix: it.prefix, bound: it.n.weight, emit: true})
		}
		for r, c := range it.n.children {
			heap.Push(f, frontierItem{n: c, prefix: it.prefix + string(r), bound: c.maxWeight})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Word < out[j].Word
	})
	return out
}

// Walk calls fn for every stored word in lexicographic order; fn returning
// false stops the walk.
func (t *Reference) Walk(fn func(Entry) bool) {
	t.walk(t.root, "", fn)
}

func (t *Reference) walk(n *node, prefix string, fn func(Entry) bool) bool {
	if n.terminal {
		if !fn(Entry{Word: prefix, Weight: n.weight, Datum: n.datum}) {
			return false
		}
	}
	runes := make([]rune, 0, len(n.children))
	for r := range n.children {
		runes = append(runes, r)
	}
	sort.Slice(runes, func(i, j int) bool { return runes[i] < runes[j] })
	for _, r := range runes {
		if !t.walk(n.children[r], prefix+string(r), fn) {
			return false
		}
	}
	return true
}

// FuzzyComplete returns up to k words whose prefix is within edit distance
// maxDist of the query prefix: nearest first, then heaviest, then
// lexicographically.  Each trie edge extends a Levenshtein row against the
// query; a subtree whose distance is settled is emitted wholesale.
func (t *Reference) FuzzyComplete(prefix string, maxDist, k int) []Entry {
	if k <= 0 {
		return nil
	}
	if maxDist <= 0 {
		return t.Complete(prefix, k)
	}
	q := []rune(prefix)
	row := make([]int, len(q)+1)
	for i := range row {
		row[i] = i
	}
	type hit struct {
		Entry
		dist int
	}
	var hits []hit

	// The prefix edit distance of a word w is min over w's prefixes p of
	// levenshtein(q, p); at each trie node it equals the minimum of
	// row[len(q)] along the root path so far ("best").  Because row minima
	// are nondecreasing as the path extends, once minOf(row) >= best the
	// distance of every word below is settled at best and the subtree can be
	// emitted wholesale; otherwise we keep descending to find improvements.
	var walk func(n *node, soFar string, prev []int, best int)
	walk = func(n *node, soFar string, prev []int, best int) {
		if d := prev[len(q)]; d < best {
			best = d
		}
		if best == 0 || slices.Min(prev) >= best {
			if best <= maxDist {
				for _, e := range completeNode(n, soFar, k) {
					hits = append(hits, hit{e, best})
				}
			}
			return
		}
		if n.terminal && best <= maxDist {
			hits = append(hits, hit{Entry{Word: soFar, Weight: n.weight, Datum: n.datum}, best})
		}
		cur := make([]int, len(q)+1)
		for r, c := range n.children {
			cur[0] = prev[0] + 1
			for i := 1; i <= len(q); i++ {
				cost := 1
				if q[i-1] == r {
					cost = 0
				}
				cur[i] = min(prev[i]+1, min(cur[i-1]+1, prev[i-1]+cost))
			}
			walk(c, soFar+string(r), cur, best)
		}
	}
	walk(t.root, "", row, len(q)+1)

	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].dist != hits[j].dist {
			return hits[i].dist < hits[j].dist
		}
		if hits[i].Weight != hits[j].Weight {
			return hits[i].Weight > hits[j].Weight
		}
		return hits[i].Word < hits[j].Word
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	out := make([]Entry, len(hits))
	for i, h := range hits {
		out[i] = h.Entry
	}
	return out
}

// Mismatch returns the first read on which got and ref answer differently —
// Len, Walk, Contains and Weight of every stored word and of each prefix,
// Complete at several k from each prefix, and FuzzyComplete at several k
// and budgets from each prefix of at most 8 runes — or "" when they agree on
// all of them.  An empty and a nil answer are
// the same answer.
func Mismatch(got *Trie, ref *Reference, prefixes []string) string {
	if got.Len() != ref.Len() {
		return fmt.Sprintf("Len %d, reference %d", got.Len(), ref.Len())
	}
	var gw, rw []Entry
	got.Walk(func(e Entry) bool { gw = append(gw, e); return true })
	ref.Walk(func(e Entry) bool { rw = append(rw, e); return true })
	if !slices.Equal(gw, rw) {
		return fmt.Sprintf("Walk %v, reference %v", gw, rw)
	}
	words := make([]string, 0, len(rw)+len(prefixes))
	for _, e := range rw {
		words = append(words, e.Word)
	}
	for _, p := range append(words, prefixes...) {
		if got.Contains(p) != ref.Contains(p) || got.Weight(p) != ref.Weight(p) {
			return fmt.Sprintf("%q: Contains %v Weight %d, reference %v %d",
				p, got.Contains(p), got.Weight(p), ref.Contains(p), ref.Weight(p))
		}
	}
	prefixes = slices.Clone(prefixes)
	slices.Sort(prefixes)
	prefixes = slices.Compact(prefixes)
	for _, p := range prefixes {
		for _, k := range []int{0, 1, 3, 10, 50} {
			if g, r := got.Complete(p, k), ref.Complete(p, k); !slices.Equal(g, r) {
				return fmt.Sprintf("Complete(%q, %d) = %v, reference %v", p, k, g, r)
			}
		}
		if utf8.RuneCountInString(p) > 8 {
			continue // a long query keeps the reference's fuzzy search descending almost everywhere
		}
		for _, dist := range []int{1, 2} {
			for _, k := range []int{1, 10} {
				if g, r := got.FuzzyComplete(p, dist, k), ref.FuzzyComplete(p, dist, k); !slices.Equal(g, r) {
					return fmt.Sprintf("FuzzyComplete(%q, %d, %d) = %v, reference %v", p, dist, k, g, r)
				}
			}
		}
	}
	return ""
}
