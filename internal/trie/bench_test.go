package trie

import (
	"math/rand"
	"strings"
	"testing"
)

// benchWords is a value-trie-shaped key set: short phrases over a small
// vocabulary, so keys share prefixes near the root and end in long unshared
// tails — the shape of DBLP titles and author names — with repeats that
// exercise the accumulate-weight path.
func benchWords(n int) []string {
	vocab := []string{
		"xml", "twig", "query", "holistic", "join", "index", "search", "graph",
		"stream", "pattern", "structural", "ranking", "adaptive", "efficient",
	}
	rng := rand.New(rand.NewSource(1))
	words := make([]string, n)
	for i := range words {
		parts := make([]string, 2+rng.Intn(4))
		for j := range parts {
			parts[j] = vocab[rng.Intn(len(vocab))]
		}
		words[i] = strings.Join(parts, " ")
	}
	return words
}

// BenchmarkInsert builds one trie of 20000 phrases per iteration with the
// Insert reference.
func BenchmarkInsert(b *testing.B) {
	words := benchWords(20000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t := New()
		for j, w := range words {
			t.Insert(w, 1, int32(j))
		}
	}
}

// BenchmarkBuild builds the trie of the same 20000 phrases, entries merged
// and sorted by Build, per iteration.
func BenchmarkBuild(b *testing.B) {
	words := benchWords(20000)
	entries := make([]Entry, len(words))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, w := range words {
			entries[j] = Entry{Word: w, Weight: 1, Datum: int32(j)}
		}
		Build(entries)
	}
}
