package trie

import (
	"slices"
	"strings"
)

// Contains and Weight answer point lookups for the tests; no serving path
// asks whether a whole word is stored.

// Contains reports whether word is stored, decoded as Build decodes words.
func (t *Trie) Contains(word string) bool {
	_, ok := t.find(word)
	return ok
}

// Weight returns the weight of word, or 0 if absent.
func (t *Trie) Weight(word string) int64 {
	if i, ok := t.find(word); ok {
		return t.entries[i].Weight
	}
	return 0
}

func (t *Trie) find(word string) (int, bool) {
	return slices.BinarySearchFunc(t.entries, decoded(word), func(e Entry, w string) int { return strings.Compare(e.Word, w) })
}
