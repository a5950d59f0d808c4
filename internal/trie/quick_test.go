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

// TestQuickCompleteMatchesReference: for arbitrary word sets and prefixes,
// Complete returns exactly the top-k prefix matches of a map-based
// reference implementation.
func TestQuickCompleteMatchesReference(t *testing.T) {
	f := func(ws wordSet, prefixSeed uint8, kSeed uint8) bool {
		tr := New()
		ref := make(map[string]int64)
		for i, w := range ws.words {
			tr.Insert(w, ws.weights[i], int32(i))
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
		tr := New()
		distinct := make(map[string]struct{})
		for i, w := range ws.words {
			tr.Insert(w, ws.weights[i], -1)
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
		tr := New()
		distinct := make(map[string]struct{})
		for i, w := range ws.words {
			tr.Insert(w, ws.weights[i], -1)
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
		tr := New()
		for i, w := range ws.words {
			tr.Insert(w, ws.weights[i], -1)
		}
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

// TestQuickBuildMatchesInsert: Build yields the node graph of inserting the
// same entries one by one — payloads, maxWeight, child runes, nil children
// maps — and so answers every read the same way.
func TestQuickBuildMatchesInsert(t *testing.T) {
	prefixes := []string{"", "a", "b", "é", "日", "\xff", "�", "ab", "aé", "x"}
	f := func(bs buildSet) bool {
		ref := New()
		for _, e := range bs.entries {
			ref.Insert(e.Word, e.Weight, e.Datum)
		}
		got := Build(append([]Entry(nil), bs.entries...))
		if d := Diff(got, ref); d != "" {
			t.Logf("%q: %s", bs.entries, d)
			return false
		}
		walk := func(tr *Trie) (out []Entry) {
			tr.Walk(func(e Entry) bool { out = append(out, e); return true })
			return out
		}
		if got.Len() != ref.Len() || !reflect.DeepEqual(walk(got), walk(ref)) {
			return false
		}
		for _, p := range prefixes {
			if !reflect.DeepEqual(got.Complete(p, 3), ref.Complete(p, 3)) ||
				!reflect.DeepEqual(got.FuzzyComplete(p, 1, 4), ref.FuzzyComplete(p, 1, 4)) ||
				got.Contains(p) != ref.Contains(p) || got.Weight(p) != ref.Weight(p) {
				return false
			}
		}
		for _, e := range bs.entries {
			if got.Contains(e.Word) != ref.Contains(e.Word) || got.Weight(e.Word) != ref.Weight(e.Word) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
