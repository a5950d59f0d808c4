package trie

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestInsertContainsWeight: a word given twice is one word whose weight is
// the sum and whose datum is the first one's.
func TestInsertContainsWeight(t *testing.T) {
	tr := Build([]Entry{
		{Word: "author", Weight: 3, Datum: 7},
		{Word: "auth", Weight: 1, Datum: 8},
		{Word: "author", Weight: 2, Datum: 99}, // accumulates, keeps first datum
	})

	if !tr.Contains("author") || !tr.Contains("auth") {
		t.Fatal("inserted words missing")
	}
	if tr.Contains("aut") || tr.Contains("authors") || tr.Contains("") {
		t.Fatal("non-inserted words present")
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if w := tr.Weight("author"); w != 5 {
		t.Fatalf("Weight = %d, want 5", w)
	}
	if w := tr.Weight("missing"); w != 0 {
		t.Fatalf("Weight(missing) = %d, want 0", w)
	}
	if got := tr.Complete("author", 1); len(got) != 1 || got[0].Datum != 7 {
		t.Fatalf("Complete(author) = %v, want datum 7", got)
	}
}

func TestCompleteOrdering(t *testing.T) {
	tr := Build([]Entry{
		{"author", 50, -1}, {"auction", 30, -1}, {"austria", 30, -1},
		{"authority", 10, -1}, {"title", 100, -1}, {"auth", 5, -1},
	})
	got := tr.Complete("au", 10)
	var names []string
	for _, e := range got {
		names = append(names, e.Word)
	}
	// Weight-descending, lexicographic among ties (auction < austria).
	want := []string{"author", "auction", "austria", "authority", "auth"}
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("Complete = %v, want %v", names, want)
	}
}

func TestCompleteK(t *testing.T) {
	var es []Entry
	for i := 0; i < 100; i++ {
		es = append(es, Entry{fmt.Sprintf("word%03d", i), int64(i), int32(i)})
	}
	tr := Build(es)
	got := tr.Complete("word", 5)
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	for i, e := range got {
		if e.Weight != int64(99-i) {
			t.Fatalf("entry %d weight = %d, want %d", i, e.Weight, 99-i)
		}
		if e.Datum != int32(99-i) {
			t.Fatalf("entry %d datum = %d, want %d", i, e.Datum, 99-i)
		}
	}
	if got := tr.Complete("word", 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
	if got := tr.Complete("zzz", 5); got != nil {
		t.Fatal("missing prefix should return nil")
	}
}

func TestCompleteEmptyPrefixListsAll(t *testing.T) {
	tr := Build([]Entry{{"a", 1, -1}, {"b", 2, -1}})
	got := tr.Complete("", 10)
	if len(got) != 2 || got[0].Word != "b" {
		t.Fatalf("got %v", got)
	}
}

func TestExactWordIsItsOwnCompletion(t *testing.T) {
	tr := Build([]Entry{{"year", 1, -1}})
	got := tr.Complete("year", 3)
	if len(got) != 1 || got[0].Word != "year" {
		t.Fatalf("got %v", got)
	}
}

func TestCompleteAgainstBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []rune("abc")
	for trial := 0; trial < 50; trial++ {
		var es []Entry
		ref := make(map[string]int64)
		n := 1 + rng.Intn(60)
		for i := 0; i < n; i++ {
			l := 1 + rng.Intn(6)
			var b strings.Builder
			for j := 0; j < l; j++ {
				b.WriteRune(alphabet[rng.Intn(len(alphabet))])
			}
			w := b.String()
			wt := int64(1 + rng.Intn(20))
			es = append(es, Entry{w, wt, -1})
			ref[w] += wt
		}
		tr := Build(es)
		prefix := ""
		if rng.Intn(2) == 0 {
			prefix = string(alphabet[rng.Intn(len(alphabet))])
		}
		k := 1 + rng.Intn(8)

		// Brute-force reference.
		type kv struct {
			w  string
			wt int64
		}
		var all []kv
		for w, wt := range ref {
			if strings.HasPrefix(w, prefix) {
				all = append(all, kv{w, wt})
			}
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].wt != all[j].wt {
				return all[i].wt > all[j].wt
			}
			return all[i].w < all[j].w
		})
		if len(all) > k {
			all = all[:k]
		}
		got := tr.Complete(prefix, k)
		if len(got) != len(all) {
			t.Fatalf("trial %d: len %d want %d", trial, len(got), len(all))
		}
		for i := range all {
			if got[i].Word != all[i].w || got[i].Weight != all[i].wt {
				t.Fatalf("trial %d: entry %d = %+v, want %+v", trial, i, got[i], all[i])
			}
		}
	}
}

func TestWalkLexicographic(t *testing.T) {
	tr := Build([]Entry{{"b", 1, -1}, {"a", 1, -1}, {"ab", 1, -1}, {"aa", 1, -1}, {"ba", 1, -1}})
	var got []string
	tr.Walk(func(e Entry) bool {
		got = append(got, e.Word)
		return true
	})
	want := []string{"a", "aa", "ab", "b", "ba"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Walk order = %v, want %v", got, want)
	}

	// Early stop.
	got = got[:0]
	tr.Walk(func(e Entry) bool {
		got = append(got, e.Word)
		return len(got) < 2
	})
	if len(got) != 2 {
		t.Fatalf("early-stopped walk yielded %d entries", len(got))
	}
}

func TestFuzzyCompleteTypo(t *testing.T) {
	tr := Build([]Entry{{"author", 10, 1}, {"title", 5, 2}, {"auction", 3, 3}})

	got := tr.FuzzyComplete("athor", 1, 5) // missing 'u'
	if len(got) == 0 || got[0].Word != "author" {
		t.Fatalf("fuzzy got %v, want author first", got)
	}
	// Distance 0 should behave like Complete.
	got = tr.FuzzyComplete("tit", 0, 5)
	if len(got) != 1 || got[0].Word != "title" {
		t.Fatalf("dist-0 fuzzy got %v", got)
	}
}

func TestFuzzyPrefersExactPrefix(t *testing.T) {
	tr := Build([]Entry{{"cat", 1, -1}, {"car", 100, -1}})
	got := tr.FuzzyComplete("cat", 1, 5)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	// "cat" is distance 0, must precede heavier distance-1 "car".
	if got[0].Word != "cat" || got[1].Word != "car" {
		t.Fatalf("order = %v", got)
	}
}

func TestFuzzyRespectsBudget(t *testing.T) {
	tr := Build([]Entry{{"abcdef", 1, -1}})
	if got := tr.FuzzyComplete("xyzdef", 2, 5); len(got) != 0 {
		t.Fatalf("distance-3 prefix matched: %v", got)
	}
	if got := tr.FuzzyComplete("axcdef", 1, 5); len(got) != 1 {
		t.Fatalf("distance-1 prefix missed: %v", got)
	}
}

func TestFuzzyKZero(t *testing.T) {
	tr := Build([]Entry{{"a", 1, -1}})
	if got := tr.FuzzyComplete("a", 1, 0); got != nil {
		t.Fatal("k=0 should return nil")
	}
}

func TestFuzzyPrefixExtension(t *testing.T) {
	// A query that is a prefix of stored words within distance: the whole
	// subtree completes.
	tr := Build([]Entry{{"person", 4, -1}, {"personalize", 2, -1}})
	got := tr.FuzzyComplete("persn", 1, 5)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestUnicodeWords(t *testing.T) {
	tr := Build([]Entry{{"日本語", 3, -1}, {"日本", 5, -1}})
	got := tr.Complete("日", 5)
	if len(got) != 2 || got[0].Word != "日本" {
		t.Fatalf("unicode completion = %v", got)
	}
	if !tr.Contains("日本語") {
		t.Fatal("unicode word missing")
	}
}
