package index

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"lotusx/internal/doc"
)

// randomDoc is a quick-generatable random document source.
type randomDoc struct {
	src string
}

// Generate implements quick.Generator.
func (randomDoc) Generate(rng *rand.Rand, size int) reflect.Value {
	tags := []string{"a", "b", "item"}
	words := []string{"alpha", "beta", "gamma", "alpha beta", ""}
	var b strings.Builder
	b.WriteString("<r>")
	n := 1 + rng.Intn(size%30+5)
	var open []string
	for i := 0; i < n; i++ {
		if len(open) > 0 && rng.Intn(3) == 0 {
			b.WriteString("</" + open[len(open)-1] + ">")
			open = open[:len(open)-1]
			continue
		}
		tag := tags[rng.Intn(len(tags))]
		if rng.Intn(2) == 0 {
			b.WriteString("<" + tag + ">" + words[rng.Intn(len(words))] + "</" + tag + ">")
		} else {
			b.WriteString("<" + tag + ">")
			open = append(open, tag)
		}
	}
	for len(open) > 0 {
		b.WriteString("</" + open[len(open)-1] + ">")
		open = open[:len(open)-1]
	}
	b.WriteString("</r>")
	return reflect.ValueOf(randomDoc{b.String()})
}

// TestQuickIndexInvariants: for arbitrary documents, the index's core
// invariants hold — streams are document-ordered and complete, postings are
// ordered and consistent with the documents' values, and DF equals posting
// length.
func TestQuickIndexInvariants(t *testing.T) {
	f := func(rd randomDoc) bool {
		d, err := doc.FromString("gen", rd.src)
		if err != nil {
			return false
		}
		ix := Build(d)

		// Streams partition the node set and are sorted.
		total := 0
		for tag := doc.TagID(0); int(tag) < d.Tags().Len(); tag++ {
			nodes := ix.Nodes(tag)
			total += len(nodes)
			for i, n := range nodes {
				if d.Tag(n) != tag {
					return false
				}
				if i > 0 && nodes[i-1] >= n {
					return false
				}
			}
		}
		if total != d.Len() {
			return false
		}

		// Every token of every value is findable, and every posting entry
		// really contains its token.
		for i := 0; i < d.Len(); i++ {
			n := doc.NodeID(i)
			for _, tok := range Tokenize(d.Value(n)) {
				found := false
				for _, pn := range ix.TokenPostings(tok) {
					if pn == n {
						found = true
						break
					}
				}
				if !found {
					return false
				}
				if ix.DF(tok) != len(ix.TokenPostings(tok)) {
					return false
				}
			}
		}
		// Exact lookup agrees with values.
		for i := 0; i < d.Len(); i++ {
			n := doc.NodeID(i)
			v := d.Value(n)
			if v == "" {
				continue
			}
			found := false
			for _, en := range ix.ExactMatches(v) {
				if en == n {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFullPersistenceRoundTrip: SaveDocument/LoadDocument round-trips
// arbitrary documents, and the rebuilt postings are exactly the original's.
func TestQuickFullPersistenceRoundTrip(t *testing.T) {
	f := func(rd randomDoc) bool {
		d, err := doc.FromString("gen", rd.src)
		if err != nil {
			return false
		}
		ix := Build(d)
		var buf strings.Builder
		if err := SaveDocument(&buf, d); err != nil {
			return false
		}
		d2, err := LoadDocument(strings.NewReader(buf.String()))
		if err != nil {
			return false
		}
		ix2 := Build(d2)
		for _, tok := range []string{"alpha", "beta", "gamma"} {
			a, b := ix.TokenPostings(tok), ix2.TokenPostings(tok)
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return ix.ValuedNodes() == ix2.ValuedNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
