// Package trie implements weighted top-k prefix completion and
// bounded-edit-distance (fuzzy) completion over a fixed set of words.
// LotusX keeps one trie over tag names and one over the values of each tag;
// the auto-completion engine intersects trie candidates with the
// position-feasible set from the DataGuide.
//
// The trie is implicit: its words are kept sorted, so the words below any
// trie node — the words sharing a prefix — are one contiguous range of the
// array, found by two binary searches.  An argmax tree over the weights
// names each range's heaviest word in logarithmic time.
package trie

import (
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

// Trie is a weighted prefix tree.  It is immutable once built and safe for
// concurrent readers.
type Trie struct {
	entries []Entry // distinct words, sorted
	// heavy is an argmax tree over the entries' weights: heavy[n+i] is i
	// for n entries, and heavy[j] is the heavier of heavy[2j] and
	// heavy[2j+1], the lower index on a tie.
	heavy []int32
}

// Len returns the number of distinct words stored.
func (t *Trie) Len() int { return len(t.entries) }

// Build returns the trie of entries: each word with its weight and datum.
// Words that decode to the same runes are one word — an invalid UTF-8 byte
// decodes to U+FFFD, as ranging over a string does — whose weight is their
// sum and whose datum is the first one's in entries.  Weights must not be
// negative.  Build rewrites an invalid word in entries as it decodes, sorts
// entries in place, stably, unless they come sorted, and keeps their backing
// array: the caller must not touch entries afterwards.
func Build(entries []Entry) *Trie {
	for i := range entries {
		entries[i].Word = decoded(entries[i].Word)
	}
	byWord := func(a, b Entry) int { return strings.Compare(a.Word, b.Word) }
	if !slices.IsSortedFunc(entries, byWord) {
		slices.SortStableFunc(entries, byWord)
	}
	merged := entries[:0]
	for _, e := range entries {
		if n := len(merged); n > 0 && merged[n-1].Word == e.Word {
			merged[n-1].Weight += e.Weight
			continue
		}
		merged = append(merged, e)
	}
	n := len(merged)
	t := &Trie{entries: merged, heavy: make([]int32, 2*n)}
	for i := 0; i < n; i++ {
		t.heavy[n+i] = int32(i)
	}
	for j := n - 1; j > 0; j-- {
		t.heavy[j] = t.heavier(t.heavy[2*j], t.heavy[2*j+1])
	}
	return t
}

// decoded returns s with every invalid UTF-8 byte replaced by U+FFFD.
func decoded(s string) string {
	if utf8.ValidString(s) {
		return s
	}
	return string([]rune(s))
}

// heavier returns whichever of the entries a and b ranks first in a
// completion, heavier and then lexicographically smaller; -1 is no entry.
func (t *Trie) heavier(a, b int32) int32 {
	if a < 0 {
		return b
	}
	wa, wb := t.entries[a].Weight, t.entries[b].Weight
	if wa > wb || wa == wb && a < b {
		return a
	}
	return b
}

// heaviest returns the index of the heaviest entry in [lo, hi), which must
// not be empty.
func (t *Trie) heaviest(lo, hi int) int32 {
	n := len(t.entries)
	top := int32(-1)
	for lo, hi = lo+n, hi+n; lo < hi; lo, hi = lo>>1, hi>>1 {
		if lo&1 == 1 {
			top = t.heavier(top, t.heavy[lo])
			lo++
		}
		if hi&1 == 1 {
			hi--
			top = t.heavier(top, t.heavy[hi])
		}
	}
	return top
}

// below returns the range of entries that start with prefix, a valid UTF-8
// string.
func (t *Trie) below(prefix string) (int, int) {
	lo := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Word >= prefix })
	rest := t.entries[lo:]
	return lo, lo + sort.Search(len(rest), func(i int) bool { return !strings.HasPrefix(rest[i].Word, prefix) })
}

// Complete returns up to k words starting with prefix, heaviest first and
// lexicographically among equal weights.  Prefix decodes as Build decodes
// words.  It costs two binary searches and O(k log n) after them, however
// many words the prefix matches.
func (t *Trie) Complete(prefix string, k int) []Entry {
	if k <= 0 {
		return nil
	}
	lo, hi := t.below(decoded(prefix))
	return t.entriesAt(t.top(lo, hi, k))
}

// entriesAt returns the entries at the indices idx, or nil for none.
func (t *Trie) entriesAt(idx []int32) []Entry {
	if len(idx) == 0 {
		return nil
	}
	out := make([]Entry, len(idx))
	for j, i := range idx {
		out[j] = t.entries[i]
	}
	return out
}

// part is a range of entries keyed by its heaviest entry.
type part struct{ lo, hi, top int32 }

// top returns the indices of the k heaviest entries in [lo, hi) in
// completion order.  A heap holds disjoint ranges keyed by their heaviest
// entries: popping one yields the next result and pushes the two sides of
// it, so the heap never holds more than k+1 ranges.
func (t *Trie) top(lo, hi, k int) []int32 {
	if lo >= hi {
		return nil
	}
	out := make([]int32, 0, min(k, hi-lo))
	h := []part{{int32(lo), int32(hi), t.heaviest(lo, hi)}}
	for len(h) > 0 && len(out) < k {
		p := h[0]
		out = append(out, p.top)
		h[0] = h[len(h)-1]
		h = t.down(h[:len(h)-1])
		for _, s := range [2]part{{lo: p.lo, hi: p.top}, {lo: p.top + 1, hi: p.hi}} {
			if s.lo < s.hi {
				s.top = t.heaviest(int(s.lo), int(s.hi))
				h = t.up(append(h, s))
			}
		}
	}
	return out
}

// up restores the heap order of h after its last range was appended.
func (t *Trie) up(h []part) []part {
	for i := len(h) - 1; i > 0; {
		j := (i - 1) / 2
		if t.heavier(h[i].top, h[j].top) != h[i].top {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h
}

// down restores the heap order of h after its first range was replaced.
func (t *Trie) down(h []part) []part {
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			return h
		}
		if j+1 < len(h) && t.heavier(h[j].top, h[j+1].top) != h[j].top {
			j++
		}
		if t.heavier(h[i].top, h[j].top) == h[i].top {
			return h
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Walk calls fn for every stored word in lexicographic order; fn returning
// false stops the walk.
func (t *Trie) Walk(fn func(Entry) bool) {
	for _, e := range t.entries {
		if !fn(e) {
			return
		}
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
