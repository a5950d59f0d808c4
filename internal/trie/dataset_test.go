package trie_test

import (
	"strings"
	"testing"

	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/trie"
)

// TestIndexTriesMatchInsertReference: every trie index.Build makes for the
// synthetic datasets at scale 2 — the tag trie and each tag's value trie —
// answers every read as the map-trie reference grown from the same
// document, one tag or one valued node at a time, from prefixes of up to
// 30 sampled stored words per trie, typos of them and invalid UTF-8.  It
// lives here, not in internal/index, because the reference is this
// package's test code.
func TestIndexTriesMatchInsertReference(t *testing.T) {
	for _, k := range dataset.Kinds {
		d, err := dataset.Build(k, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(d)

		tags := trie.NewReference()
		for id := doc.TagID(0); int(id) < d.Tags().Len(); id++ {
			tags.Insert(strings.ToLower(d.Tags().Name(id)), int64(ix.TagCount(id)), int32(id))
		}
		if diff := trie.Mismatch(ix.TagTrie(), tags, samplePrefixes(tags)); diff != "" {
			t.Errorf("%s: tag trie: %s", k, diff)
		}

		values := map[doc.TagID]*trie.Reference{}
		for i := 0; i < d.Len(); i++ {
			n := doc.NodeID(i)
			v := d.Value(n)
			if v == "" {
				continue
			}
			ref := values[d.Tag(n)]
			if ref == nil {
				ref = trie.NewReference()
				values[d.Tag(n)] = ref
			}
			ref.Insert(strings.ToLower(strings.TrimSpace(v)), 1, int32(n))
		}
		for id := doc.TagID(0); int(id) < d.Tags().Len(); id++ {
			got, want := ix.ValueTrie(id), values[id]
			if (got == nil) != (want == nil) {
				t.Errorf("%s: value trie of %s: %v, reference %v", k, d.Tags().Name(id), got != nil, want != nil)
				continue
			}
			if got != nil {
				if diff := trie.Mismatch(got, want, samplePrefixes(want)); diff != "" {
					t.Errorf("%s: value trie of %s: %s", k, d.Tags().Name(id), diff)
				}
			}
		}
	}
}

// samplePrefixes returns, for up to 30 of ref's words spread over its word
// order, their prefixes of 1 to 3 runes, the whole word, its first 5 runes
// with the second changed, and an invalid UTF-8 byte after the first rune; and
// the empty prefix and a prefix of no word.
func samplePrefixes(ref *trie.Reference) []string {
	var words []string
	ref.Walk(func(e trie.Entry) bool { words = append(words, e.Word); return true })
	out := []string{"", "\xff", "zzzz"}
	step := max(1, len(words)/30)
	for i := 0; i < len(words); i += step {
		r := []rune(words[i])
		for n := 1; n <= min(3, len(r)); n++ {
			out = append(out, string(r[:n]))
		}
		out = append(out, words[i], string(r[:1])+"\xff")
		if len(r) > 1 {
			typo := append([]rune(nil), r[:min(5, len(r))]...)
			typo[1] = 'q'
			out = append(out, string(typo))
		}
	}
	return out
}
