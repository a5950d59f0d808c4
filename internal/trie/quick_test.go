package trie

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// wordSet is a quick-generatable set of weighted words over a tiny
// alphabet, adversarially prefix-heavy.
type wordSet struct {
	words   []string
	weights []int64
}

// Generate implements quick.Generator.
func (wordSet) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(size+1)
	ws := wordSet{}
	for i := 0; i < n; i++ {
		l := 1 + rng.Intn(5)
		var b strings.Builder
		for j := 0; j < l; j++ {
			b.WriteByte(byte('a' + rng.Intn(2)))
		}
		ws.words = append(ws.words, b.String())
		ws.weights = append(ws.weights, int64(1+rng.Intn(9)))
	}
	return reflect.ValueOf(ws)
}

// entries returns the words as Build's entries, datum the position.
func (ws wordSet) entries() []Entry {
	es := make([]Entry, len(ws.words))
	for i, w := range ws.words {
		es[i] = Entry{Word: w, Weight: ws.weights[i], Datum: int32(i)}
	}
	return es
}

// TestQuickCompleteMatchesReference: for arbitrary word sets and prefixes,
// Complete returns exactly the top-k prefix matches of a map-based
// reference implementation.
func TestQuickCompleteMatchesReference(t *testing.T) {
	f := func(ws wordSet, prefixSeed uint8, kSeed uint8) bool {
		tr := Build(ws.entries())
		ref := make(map[string]int64)
		for i, w := range ws.words {
			ref[w] += ws.weights[i]
		}
		prefixes := []string{"", "a", "b", "ab", "ba", "aa"}
		prefix := prefixes[int(prefixSeed)%len(prefixes)]
		k := 1 + int(kSeed)%6

		type kv struct {
			w  string
			wt int64
		}
		var want []kv
		for w, wt := range ref {
			if strings.HasPrefix(w, prefix) {
				want = append(want, kv{w, wt})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].wt != want[j].wt {
				return want[i].wt > want[j].wt
			}
			return want[i].w < want[j].w
		})
		if len(want) > k {
			want = want[:k]
		}
		got := tr.Complete(prefix, k)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Word != want[i].w || got[i].Weight != want[i].wt {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLenMatchesDistinctWords: Len equals the number of distinct words
// regardless of insertion order and repetition.
func TestQuickLenMatchesDistinctWords(t *testing.T) {
	f := func(ws wordSet) bool {
		tr := Build(ws.entries())
		distinct := make(map[string]struct{})
		for _, w := range ws.words {
			distinct[w] = struct{}{}
		}
		return tr.Len() == len(distinct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWalkVisitsAllInsertedWords: Walk enumerates exactly the inserted
// set in strictly increasing lexicographic order.
func TestQuickWalkVisitsAllInsertedWords(t *testing.T) {
	f := func(ws wordSet) bool {
		tr := Build(ws.entries())
		distinct := make(map[string]struct{})
		for _, w := range ws.words {
			distinct[w] = struct{}{}
		}
		var visited []string
		tr.Walk(func(e Entry) bool {
			visited = append(visited, e.Word)
			return true
		})
		if len(visited) != len(distinct) {
			return false
		}
		for i, w := range visited {
			if _, ok := distinct[w]; !ok {
				return false
			}
			if i > 0 && visited[i-1] >= w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFuzzySupersetOfExact: fuzzy completion at any budget includes
// every exact-prefix completion.
func TestQuickFuzzySupersetOfExact(t *testing.T) {
	f := func(ws wordSet, prefixSeed uint8) bool {
		tr := Build(ws.entries())
		prefixes := []string{"a", "b", "ab", "aa"}
		prefix := prefixes[int(prefixSeed)%len(prefixes)]
		exact := tr.Complete(prefix, 100)
		fuzzy := tr.FuzzyComplete(prefix, 1, 100)
		got := make(map[string]struct{}, len(fuzzy))
		for _, e := range fuzzy {
			got[e.Word] = struct{}{}
		}
		for _, e := range exact {
			if _, ok := got[e.Word]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// buildSet is a quick-generatable list of entries for Build: short words
// over ASCII, multi-byte runes and invalid UTF-8 bytes (several of which
// decode to the same U+FFFD), repeats included, weights from zero up.
type buildSet struct{ entries []Entry }

// Generate implements quick.Generator.
func (buildSet) Generate(rng *rand.Rand, size int) reflect.Value {
	pieces := []string{"a", "b", "é", "日", "\xff", "\xfe", "\xc3", "�"}
	n := rng.Intn(size + 1)
	var bs buildSet
	for i := 0; i < n; i++ {
		var b strings.Builder
		for j := rng.Intn(5); j > 0; j-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		bs.entries = append(bs.entries, Entry{Word: b.String(), Weight: int64(rng.Intn(9)), Datum: int32(i)})
	}
	return reflect.ValueOf(bs)
}

// TestQuickBuildMatchesInsert: the trie Build makes answers every read as
// the map-trie reference grown by inserting the same entries one by one —
// Len, Walk, Contains, Weight, and Complete and FuzzyComplete from prefixes
// of the stored words, invalid UTF-8 prefixes and prefixes of no word.
func TestQuickBuildMatchesInsert(t *testing.T) {
	f := func(bs buildSet) bool {
		ref := NewReference()
		for _, e := range bs.entries {
			ref.Insert(e.Word, e.Weight, e.Datum)
		}
		got := Build(append([]Entry(nil), bs.entries...))
		prefixes := []string{"", "a", "b", "é", "日", "\xff", "\xc3", "a\xfe", "�", "ab", "aé", "x"}
		for _, e := range bs.entries {
			prefixes = append(prefixes, e.Word, e.Word+"a")
		}
		if d := Mismatch(got, ref, prefixes); d != "" {
			t.Logf("%q: %s", bs.entries, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTrieMatchesReference: for fuzzed words (one per line of words, the
// weight of each a byte of weights) and a fuzzed prefix, the trie Build
// makes answers every read as the map-trie reference does.
func FuzzTrieMatchesReference(f *testing.F) {
	f.Add("author\nauth\nauction\nauthor", []byte{5, 1, 0, 3}, "au")
	f.Add("日本語\n日本\n\xff\xfe\n�", []byte{3, 5, 1, 1}, "\xff")
	f.Add("\na\nab\nb", []byte{0, 9, 9, 2}, "ax")
	f.Fuzz(func(t *testing.T, words string, weights []byte, prefix string) {
		lines := strings.Split(words, "\n")
		if len(lines) > 64 {
			lines = lines[:64]
		}
		ref := NewReference()
		entries := make([]Entry, len(lines))
		for i, w := range lines {
			var wt int64
			if i < len(weights) {
				wt = int64(weights[i])
			}
			entries[i] = Entry{Word: w, Weight: wt, Datum: int32(i)}
			ref.Insert(w, wt, int32(i))
		}
		prefixes := []string{prefix, ""}
		for i := range prefix {
			prefixes = append(prefixes, prefix[:i])
		}
		if d := Mismatch(Build(entries), ref, prefixes); d != "" {
			t.Fatal(d)
		}
	})
}
