// Package trie implements a weighted rune trie with top-k prefix completion
// and bounded-edit-distance (fuzzy) completion.  LotusX keeps one trie over
// tag names and one over value tokens; the auto-completion engine intersects
// trie candidates with the position-feasible set from the DataGuide.
package trie

import (
	"container/heap"
	"slices"
	"sort"
	"strings"
	"unicode/utf8"
)

// Entry is a completion result.
type Entry struct {
	Word   string
	Weight int64 // caller-defined weight, typically an occurrence count
	Datum  int32 // caller-defined payload, e.g. a TagID; -1 if unused
}

type node struct {
	// children is nil until the first child arrives: most nodes of a value
	// trie sit on an unshared tail and the last one never has a child, so
	// readers must treat a nil map as empty (lookups and range both do).
	children map[rune]*node
	// entry payload; present iff terminal.
	weight   int64
	datum    int32
	terminal bool
	// maxWeight is the largest terminal weight in this subtree; it lets
	// top-k completion explore best-first and stop early.
	maxWeight int64
}

// Trie is a weighted prefix tree.  It is immutable once built and safe for
// concurrent readers.
type Trie struct {
	root *node
	size int
}

// Len returns the number of distinct words stored.
func (t *Trie) Len() int { return t.size }

// Build returns the trie of entries: each word with its weight and datum.
// Words that decode to the same runes are one word — an invalid UTF-8 byte
// decodes to U+FFFD, as ranging over a string does — whose weight is their
// sum and whose datum is the first one's in entries.  Weights must not be
// negative.  Build rewrites an invalid word in entries as it decodes, and
// sorts entries in place, stably, unless they come sorted.
//
// It is one pass over the sorted words: each word adds only the nodes past
// its longest common prefix with the word before it, all taken from one
// slab, and a node's maxWeight is settled when the pass leaves its subtree.
func Build(entries []Entry) *Trie {
	for i := range entries {
		if !utf8.ValidString(entries[i].Word) {
			entries[i].Word = string([]rune(entries[i].Word))
		}
	}
	byWord := func(a, b Entry) int { return strings.Compare(a.Word, b.Word) }
	if !slices.IsSortedFunc(entries, byWord) {
		slices.SortStableFunc(entries, byWord)
	}
	nodes, prev := 1, ""
	for _, e := range entries {
		nodes += utf8.RuneCountInString(e.Word[commonPrefix(prev, e.Word):])
		prev = e.Word
	}
	slab := make([]node, nodes)
	for i := range slab {
		slab[i].datum = -1
	}
	t := &Trie{root: &slab[0]}
	slab = slab[1:]
	// path holds the nodes of the previous word's runes, the root first;
	// ends[d] is where the word's first d runes end.
	path, ends := []*node{t.root}, []int{0}
	prev = ""
	for _, e := range entries {
		lcp := commonPrefix(prev, e.Word)
		d := len(ends) - 1
		for ends[d] > lcp {
			leave(path[d], path[d-1])
			d--
		}
		path, ends = path[:d+1], ends[:d+1]
		cur := path[d]
		for i, r := range e.Word[lcp:] {
			next := &slab[0]
			slab = slab[1:]
			if cur.children == nil {
				cur.children = make(map[rune]*node)
			}
			cur.children[r] = next
			cur = next
			path = append(path, cur)
			ends = append(ends, lcp+i+utf8.RuneLen(r))
		}
		if cur.terminal {
			cur.weight += e.Weight
		} else {
			cur.terminal, cur.weight, cur.datum = true, e.Weight, e.Datum
			t.size++
		}
		prev = e.Word
	}
	for d := len(path) - 1; d > 0; d-- {
		leave(path[d], path[d-1])
	}
	leave(t.root, nil)
	return t
}

// leave settles n's maxWeight once its subtree is complete and raises its
// parent's with it.
func leave(n, parent *node) {
	if n.terminal && n.weight > n.maxWeight {
		n.maxWeight = n.weight
	}
	if parent != nil && n.maxWeight > parent.maxWeight {
		parent.maxWeight = n.maxWeight
	}
}

// commonPrefix returns the length in bytes of the longest common prefix of
// the valid UTF-8 strings a and b that ends on a rune boundary.
func commonPrefix(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	for n > 0 && n < len(b) && !utf8.RuneStart(b[n]) {
		n--
	}
	return n
}

// Contains reports whether word was inserted.
func (t *Trie) Contains(word string) bool {
	n := t.descend(word)
	return n != nil && n.terminal
}

// Weight returns the accumulated weight of word, or 0 if absent.
func (t *Trie) Weight(word string) int64 {
	n := t.descend(word)
	if n == nil || !n.terminal {
		return 0
	}
	return n.weight
}

func (t *Trie) descend(prefix string) *node {
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

// Complete returns up to k words starting with prefix, heaviest first.
// Best-first exploration over subtree weight bounds makes the cost
// proportional to the answer size, not the subtree size.  Ties are broken
// lexicographically for determinism.
func (t *Trie) Complete(prefix string, k int) []Entry {
	if k <= 0 {
		return nil
	}
	start := t.descend(prefix)
	if start == nil {
		return nil
	}
	return completeNode(start, prefix, k)
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
	stabilize(out)
	return out
}

// stabilize sorts equal-weight runs lexicographically so completion output
// is deterministic across map iteration orders.
func stabilize(out []Entry) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Word < out[j].Word
	})
}

// Walk calls fn for every stored word in lexicographic order; fn returning
// false stops the walk.
func (t *Trie) Walk(fn func(Entry) bool) {
	t.walk(t.root, "", fn)
}

func (t *Trie) walk(n *node, prefix string, fn func(Entry) bool) bool {
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
