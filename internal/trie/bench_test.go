package trie

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// benchWords is a value-trie-shaped key set: phrases of minWords to
// minWords+3 words over a small vocabulary, so keys share prefixes near the
// root and end in long unshared tails — the shape of DBLP titles and author
// names — with repeats that exercise the accumulate-weight path.
func benchWords(n, minWords int) []string {
	vocab := []string{
		"xml", "twig", "query", "holistic", "join", "index", "search", "graph",
		"stream", "pattern", "structural", "ranking", "adaptive", "efficient",
	}
	rng := rand.New(rand.NewSource(1))
	words := make([]string, n)
	for i := range words {
		parts := make([]string, minWords+rng.Intn(4))
		for j := range parts {
			parts[j] = vocab[rng.Intn(len(vocab))]
		}
		words[i] = strings.Join(parts, " ")
	}
	return words
}

// BenchmarkBuild builds the trie of 20000 short phrases, entries merged and
// sorted by Build, per iteration.
func BenchmarkBuild(b *testing.B) {
	words := benchWords(20000, 2)
	entries := make([]Entry, len(words))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, w := range words {
			entries[j] = Entry{Word: w, Weight: 1, Datum: int32(j)}
		}
		Build(entries)
	}
}

var completed []Entry

// BenchmarkComplete asks for the top 10 completions of prefixes 0 to 3
// bytes long over 20000 free-text phrases of 6 to 9 words, weighted by
// repeats, cycling through the prefixes of the first 64 phrases.  The short
// prefixes are the keystrokes whose ranges hold most of the trie.
func BenchmarkComplete(b *testing.B) {
	words := benchWords(20000, 6)
	entries := make([]Entry, len(words))
	for j, w := range words {
		entries[j] = Entry{Word: w, Weight: 1 + int64(j%7), Datum: int32(j)}
	}
	t := Build(entries)
	for n := 0; n <= 3; n++ {
		prefixes := make([]string, 64)
		for j := range prefixes {
			prefixes[j] = words[j][:n]
		}
		b.Run(fmt.Sprintf("prefix%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				completed = t.Complete(prefixes[i%len(prefixes)], 10)
			}
		})
	}
}
