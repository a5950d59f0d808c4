package trie_test

import (
	"fmt"

	"lotusx/internal/trie"
)

func ExampleTrie_Complete() {
	t := trie.Build([]trie.Entry{
		{Word: "author", Weight: 50, Datum: -1},
		{Word: "auction", Weight: 30, Datum: -1},
		{Word: "austria", Weight: 7, Datum: -1},
	})
	for _, e := range t.Complete("au", 2) {
		fmt.Println(e.Word, e.Weight)
	}
	// Output:
	// author 50
	// auction 30
}

func ExampleTrie_FuzzyComplete() {
	t := trie.Build([]trie.Entry{
		{Word: "author", Weight: 50, Datum: -1},
		{Word: "title", Weight: 20, Datum: -1},
	})
	// One edit of slack rescues the typo.
	for _, e := range t.FuzzyComplete("athor", 1, 3) {
		fmt.Println(e.Word)
	}
	// Output:
	// author
}
