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
// is the node graph the Insert reference grows from the same document, one
// tag or one valued node at a time.  It lives here, not in internal/index,
// because the reference is this package's test code.
func TestIndexTriesMatchInsertReference(t *testing.T) {
	for _, k := range dataset.Kinds {
		d, err := dataset.Build(k, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		ix := index.Build(d)

		tags := trie.New()
		for id := doc.TagID(0); int(id) < d.Tags().Len(); id++ {
			tags.Insert(d.Tags().Name(id), int64(ix.TagCount(id)), int32(id))
		}
		if diff := trie.Diff(ix.TagTrie(), tags); diff != "" {
			t.Errorf("%s: tag trie: %s", k, diff)
		}

		values := map[doc.TagID]*trie.Trie{}
		for i := 0; i < d.Len(); i++ {
			n := doc.NodeID(i)
			v := d.Value(n)
			if v == "" {
				continue
			}
			ref := values[d.Tag(n)]
			if ref == nil {
				ref = trie.New()
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
				if diff := trie.Diff(got, want); diff != "" {
					t.Errorf("%s: value trie of %s: %s", k, d.Tags().Name(id), diff)
				}
			}
		}
	}
}
