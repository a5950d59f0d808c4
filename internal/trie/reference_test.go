package trie

import (
	"fmt"
	"sort"
)

// The reference: the trie Build replaced, grown one word at a time.  Each
// Insert descends from the root through one map lookup per rune, creates
// what is missing and raises maxWeight along the whole path.  Build must
// yield the node graph a run of Inserts yields.

// New returns an empty Trie.
func New() *Trie { return &Trie{root: newNode()} }

func newNode() *node { return &node{datum: -1} }

// insertPathHint sizes Insert's on-stack root path; longer words spill to
// the heap.
const insertPathHint = 64

// Insert adds word with the given weight and payload.  Inserting an existing
// word adds the weight to the stored weight (and keeps the existing payload),
// so repeated insertions accumulate occurrence counts.
func (t *Trie) Insert(word string, weight int64, datum int32) {
	cur := t.root
	var buf [insertPathHint]*node
	path := append(buf[:0], cur)
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

// Diff describes the first difference between the node graphs of a and b
// — a node's payload, maxWeight, child runes or whether it has a children
// map at all — or returns "" when they are the same.
func Diff(a, b *Trie) string {
	if a.size != b.size {
		return fmt.Sprintf("Len %d vs %d", a.size, b.size)
	}
	return diffNodes(a.root, b.root, "")
}

func diffNodes(a, b *node, word string) string {
	if a.terminal != b.terminal || a.weight != b.weight || a.datum != b.datum || a.maxWeight != b.maxWeight {
		return fmt.Sprintf("node %q: {terminal %v weight %d datum %d max %d} vs {%v %d %d %d}", word,
			a.terminal, a.weight, a.datum, a.maxWeight, b.terminal, b.weight, b.datum, b.maxWeight)
	}
	if (a.children == nil) != (b.children == nil) || len(a.children) != len(b.children) {
		return fmt.Sprintf("node %q: %d children (map %v) vs %d (map %v)", word,
			len(a.children), a.children != nil, len(b.children), b.children != nil)
	}
	runes := make([]rune, 0, len(a.children))
	for r := range a.children {
		runes = append(runes, r)
	}
	sort.Slice(runes, func(i, j int) bool { return runes[i] < runes[j] })
	for _, r := range runes {
		bc, ok := b.children[r]
		if !ok {
			return fmt.Sprintf("node %q: child %q missing", word, r)
		}
		if d := diffNodes(a.children[r], bc, word+string(r)); d != "" {
			return d
		}
	}
	return ""
}
