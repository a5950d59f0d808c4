package index

import (
	"reflect"
	"strings"
	"testing"

	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/trie"
)

// The reference build: the obvious algorithm Build is an allocation-lean
// rewrite of — streams grown by append, a per-value seen set, the query-side
// tokenizer.  Build must produce the same structures, entry for entry.

type referenceIndex struct {
	streams    [][]doc.NodeID
	postings   map[string][]doc.NodeID
	exact      map[string][]doc.NodeID
	valueWords map[doc.TagID]map[string]trie.Entry
	valued     int
}

func referenceBuild(d *doc.Document) *referenceIndex {
	ref := &referenceIndex{
		streams:    make([][]doc.NodeID, d.Tags().Len()),
		postings:   map[string][]doc.NodeID{},
		exact:      map[string][]doc.NodeID{},
		valueWords: map[doc.TagID]map[string]trie.Entry{},
	}
	for i := 0; i < d.Len(); i++ {
		n := doc.NodeID(i)
		tag := d.Tag(n)
		ref.streams[tag] = append(ref.streams[tag], n)
		v := d.Value(n)
		if v == "" {
			continue
		}
		ref.valued++
		lower := strings.ToLower(strings.TrimSpace(v))
		ref.exact[lower] = append(ref.exact[lower], n)
		seen := map[string]bool{}
		for _, tok := range Tokenize(v) {
			if !seen[tok] {
				seen[tok] = true
				ref.postings[tok] = append(ref.postings[tok], n)
			}
		}
		words := ref.valueWords[tag]
		if words == nil {
			words = map[string]trie.Entry{}
			ref.valueWords[tag] = words
		}
		e, ok := words[lower]
		if !ok {
			e = trie.Entry{Word: lower, Datum: int32(n)}
		}
		e.Weight++
		words[lower] = e
	}
	return ref
}

func trieWords(t *trie.Trie) map[string]trie.Entry {
	out := map[string]trie.Entry{}
	t.Walk(func(e trie.Entry) bool {
		out[e.Word] = e
		return true
	})
	return out
}

// trickyXML exercises what the lean build special-cases: a token repeated
// inside one value (and again in the next node), runs that need folding
// beside runs that do not, folds that change a rune's byte length, an
// overlong token, digits, an empty value, and tags that differ only in case.
const trickyXML = `<r>
  <a>join join twig JOIN Join</a>
  <a>join</a>
  <A>Join</A>
  <b>Ärger ÄRGER ärger İstanbul ǅ x1 2005 2005</b>
  <b>` + "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx" + ` ok</b>
  <c k="Mixed Case  Value">  padded   </c>
  <c k="mixed case  value"></c>
</r>`

func TestBuildMatchesReference(t *testing.T) {
	docs := map[string]*doc.Document{}
	for _, k := range dataset.Kinds {
		d, err := dataset.Build(k, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		docs[string(k)] = d
	}
	d, err := doc.FromString("tricky", trickyXML)
	if err != nil {
		t.Fatal(err)
	}
	docs["tricky"] = d

	for name, d := range docs {
		checkReference(t, name, Build(d), d)
	}
}

// checkReference compares every structure of ix with the reference build
// over d, entry for entry.
func checkReference(t *testing.T, name string, ix *Index, d *doc.Document) {
	t.Helper()
	ref := referenceBuild(d)
	if !reflect.DeepEqual(ix.streams, ref.streams) {
		t.Errorf("%s: tag streams differ from the reference", name)
	}
	if !reflect.DeepEqual(ix.postings, ref.postings) {
		t.Errorf("%s: postings differ from the reference", name)
	}
	if !reflect.DeepEqual(ix.exact, ref.exact) {
		t.Errorf("%s: exact map differs from the reference", name)
	}
	if ix.valued != ref.valued {
		t.Errorf("%s: valued = %d, want %d", name, ix.valued, ref.valued)
	}
	if len(ix.valueTries) != len(ref.valueWords) {
		t.Errorf("%s: %d value tries, want %d", name, len(ix.valueTries), len(ref.valueWords))
	}
	for tag, want := range ref.valueWords {
		if got := trieWords(ix.valueTries[tag]); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: value trie of %s differs from the reference", name, d.Tags().Name(tag))
		}
	}
	// The tag trie is over lowercased names: tags that differ only in
	// case share one entry, the first one's datum and the sum of counts.
	wantTags := map[string]trie.Entry{}
	for id := doc.TagID(0); int(id) < d.Tags().Len(); id++ {
		folded := strings.ToLower(d.Tags().Name(id))
		e, ok := wantTags[folded]
		if !ok {
			e = trie.Entry{Word: folded, Datum: int32(id)}
		}
		e.Weight += int64(len(ref.streams[id]))
		wantTags[folded] = e
	}
	if got := trieWords(ix.tagTrie); !reflect.DeepEqual(got, wantTags) {
		t.Errorf("%s: tag trie %v, want %v", name, got, wantTags)
	}
	// A stream may not be able to grow into its neighbour's region of
	// the shared backing array.
	for tag, s := range ix.streams {
		if cap(s) != len(s) {
			t.Errorf("%s: stream %d has cap %d beyond len %d", name, tag, cap(s), len(s))
		}
	}
}

// TestTokenizersAgree: the build-side tokenizer emits exactly the query
// side's spans — folding, byte ranges, the length cut-off, invalid UTF-8.
func TestTokenizersAgree(t *testing.T) {
	inputs := []string{
		"", "---", "join", "Join JOIN jOiN", "a-b_c.d", "Déjà vu", "ÄRGER Ärger",
		"İstanbul ǅungla ǅ", "x\xffy \xc3", "2005 x1 1x", "日本語 テキスト",
		strings.Repeat("x", maxTokenLen) + " " + strings.Repeat("y", maxTokenLen+1),
		strings.Repeat("İ", maxTokenLen/2+1), // folds to half its byte length
		" lead", "trail ", "MiXeD" + strings.Repeat("z", maxTokenLen),
	}
	for _, in := range inputs {
		var got []TokenSpan
		eachToken(in, func(tok string, start, end int) {
			got = append(got, TokenSpan{Token: tok, Start: start, End: end})
		})
		if want := TokenizeSpans(in); !reflect.DeepEqual(got, want) {
			t.Errorf("eachToken(%q) = %v, TokenizeSpans = %v", in, got, want)
		}
	}
}
