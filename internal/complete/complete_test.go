package complete

import (
	"fmt"
	"strings"
	"testing"

	"lotusx/internal/dataguide"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/twig"
)

// The catalog: "price" occurs under item but never under person; "name"
// occurs under both; person names and item names have disjoint values.
const shopXML = `<shop>
  <items>
    <item><name>anvil</name><price>10</price><seller>alice</seller></item>
    <item><name>apple</name><price>2</price><seller>bob</seller></item>
    <item><name>anchor</name><price>50</price><seller>alice</seller></item>
  </items>
  <people>
    <person><name>alice</name><age>30</age></person>
    <person><name>bob</name><age>40</age></person>
  </people>
</shop>`

func mustEngine(t *testing.T, src string) *Engine {
	t.Helper()
	d, err := doc.FromString("test", src)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.Build(d)
	return New(ix, dataguide.Build(d))
}

func texts(cs []Candidate) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.Text
	}
	return out
}

func contains(cs []Candidate, text string) bool {
	for _, c := range cs {
		if c.Text == text {
			return true
		}
	}
	return false
}

func TestSuggestRootTags(t *testing.T) {
	e := mustEngine(t, shopXML)
	q := twig.NewQuery("shop") // irrelevant; anchor is NewRoot
	if err := q.Normalize(); err != nil {
		t.Fatal(err)
	}
	// Child axis at the root: only the document root tag.
	got := e.SuggestTags(q, NewRoot, twig.Child, "", 10)
	if len(got) != 1 || got[0].Text != "shop" {
		t.Fatalf("root child suggestions = %v", texts(got))
	}
	// Descendant axis: everything.
	got = e.SuggestTags(q, NewRoot, twig.Descendant, "p", 10)
	if !contains(got, "person") || !contains(got, "price") || !contains(got, "people") {
		t.Fatalf("root descendant p* = %v", texts(got))
	}
}

func TestPositionAwareTagSuggestions(t *testing.T) {
	e := mustEngine(t, shopXML)

	// Under //person, prefix "a" can only be "age" — not "apple"/"anchor"
	// (values) nor attributes elsewhere.
	q := twig.MustParse("//person")
	got := e.SuggestTags(q, q.Root.ID, twig.Child, "a", 10)
	if len(got) != 1 || got[0].Text != "age" {
		t.Fatalf("person/a* = %v, want [age]", texts(got))
	}

	// Under //item, prefix "" suggests children ranked by count.
	q = twig.MustParse("//item")
	got = e.SuggestTags(q, q.Root.ID, twig.Child, "", 10)
	if len(got) != 3 {
		t.Fatalf("item children = %v", texts(got))
	}
	for _, c := range got {
		if c.Count != 3 {
			t.Errorf("item child %q count = %d, want 3", c.Text, c.Count)
		}
	}

	// The naive engine, by contrast, offers position-infeasible tags.
	naive := e.SuggestTagsNaive("p", 10)
	if !contains(naive, "price") || !contains(naive, "person") {
		t.Fatalf("naive p* = %v", texts(naive))
	}
}

// TestNaiveTagsFoldCase: the naive baseline matches a prefix regardless of
// case, as SuggestTags does.  On TreeBank, whose tags are upper case, "np"
// ranks NP first as an exact match; a prefix no tag starts with falls back
// to one edit of slack, marked Fuzzy; and tags that differ only in case are
// one candidate, named by the first of them, counting both.
func TestNaiveTagsFoldCase(t *testing.T) {
	d, err := dataset.Build(dataset.TreeBank, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	e := New(index.Build(d), dataguide.Build(d))
	got := e.SuggestTagsNaive("np", 5)
	if len(got) == 0 || got[0].Text != "NP" || got[0].Fuzzy {
		t.Fatalf("naive np* = %+v, want NP first and exact", got)
	}
	for _, c := range e.SuggestTagsNaive("n", 5) {
		if !strings.HasPrefix(c.Text, "N") || c.Fuzzy {
			t.Errorf("naive n* offers %+v, want exact N* tags only", c)
		}
	}
	got = e.SuggestTagsNaive("nx", 5)
	if len(got) == 0 {
		t.Fatal("naive nx* found nothing within one edit")
	}
	for _, c := range got {
		if !c.Fuzzy {
			t.Errorf("fallback candidate %+v not marked Fuzzy", c)
		}
	}

	e = mustEngine(t, `<r><Item/><item/><item/><items/></r>`)
	got = e.SuggestTagsNaive("ITEM", 5)
	if len(got) != 2 || got[0].Text != "Item" || got[0].Count != 3 || got[1].Text != "items" {
		t.Fatalf("naive ITEM* = %+v, want Item×3 then items", got)
	}
}

func TestPositionBeatsNaiveOnAmbiguousPrefix(t *testing.T) {
	e := mustEngine(t, shopXML)
	// Editing under //person with prefix "n": both engines suggest "name",
	// but under //item with prefix "s" only the positional engine omits
	// infeasible tags like "seller"... actually seller IS under item; use
	// person: "s" under person matches nothing positionally (no s-tag), but
	// naively matches "seller"/"shop".
	q := twig.MustParse("//person")
	got := e.SuggestTags(q, q.Root.ID, twig.Child, "s", 10)
	for _, c := range got {
		if !c.Fuzzy {
			t.Fatalf("person/s* should have no exact candidates, got %v", texts(got))
		}
	}
	naive := e.SuggestTagsNaive("s", 10)
	if !contains(naive, "seller") {
		t.Fatalf("naive s* = %v", texts(naive))
	}
}

func TestSuggestTagsDescendantAxis(t *testing.T) {
	e := mustEngine(t, shopXML)
	q := twig.MustParse("//people")
	got := e.SuggestTags(q, q.Root.ID, twig.Descendant, "", 10)
	// Descendants of people: person, name, age.
	if len(got) != 3 {
		t.Fatalf("people descendants = %v", texts(got))
	}
	if contains(got, "price") {
		t.Fatal("price is not under people")
	}
}

func TestSuggestTagsDeepContext(t *testing.T) {
	e := mustEngine(t, shopXML)
	// The anchor is an inner node of a branching twig: //items/item.
	q := twig.MustParse("//items/item[name]")
	// Anchor at item (ID 0 is items? preorder: items=0, item=1, name=2).
	itemID := 1
	if q.Node(itemID).Tag != "item" {
		t.Fatalf("expected node 1 to be item, got %q", q.Node(itemID).Tag)
	}
	got := e.SuggestTags(q, itemID, twig.Child, "se", 10)
	if len(got) != 1 || got[0].Text != "seller" {
		t.Fatalf("item/se* = %v", texts(got))
	}
}

func TestSuggestTagsFuzzy(t *testing.T) {
	e := mustEngine(t, shopXML)
	q := twig.MustParse("//item")
	got := e.SuggestTags(q, q.Root.ID, twig.Child, "pricce", 10)
	if len(got) != 1 || got[0].Text != "price" || !got[0].Fuzzy {
		t.Fatalf("fuzzy = %+v", got)
	}
	// Hopeless prefixes stay empty.
	if got := e.SuggestTags(q, q.Root.ID, twig.Child, "zzzzz", 10); len(got) != 0 {
		t.Fatalf("zzzzz = %v", texts(got))
	}
}

func TestSuggestTagsInfeasiblePosition(t *testing.T) {
	e := mustEngine(t, shopXML)
	q := twig.MustParse("//person/price") // no such path
	if got := e.SuggestTags(q, 1, twig.Child, "", 10); got != nil {
		t.Fatalf("infeasible position suggested %v", texts(got))
	}
}

func TestSuggestValuesPositionAware(t *testing.T) {
	e := mustEngine(t, shopXML)

	// Values of name under person: alice, bob — not the item names.
	q := twig.MustParse("//person/name")
	nameID := 1
	got := e.SuggestValues(q, nameID, "a", 10)
	if len(got) != 1 || got[0].Text != "alice" {
		t.Fatalf("person/name a* = %v", texts(got))
	}

	// Same tag under item yields item names only.
	q = twig.MustParse("//item/name")
	got = e.SuggestValues(q, 1, "a", 10)
	if len(got) != 3 || contains(got, "alice") {
		t.Fatalf("item/name a* = %v", texts(got))
	}

	// The naive engine mixes both (tag-level).
	naive := e.SuggestValuesNaive("name", "a", 10)
	if len(naive) != 4 {
		t.Fatalf("naive name a* = %v", texts(naive))
	}
}

func TestSuggestValuesEmptyPrefixRanked(t *testing.T) {
	e := mustEngine(t, shopXML)
	q := twig.MustParse("//seller")
	got := e.SuggestValues(q, 0, "", 10)
	if len(got) != 2 || got[0].Text != "alice" || got[0].Count != 2 {
		t.Fatalf("seller values = %+v", got)
	}
}

func TestSuggestValuesInfeasible(t *testing.T) {
	e := mustEngine(t, shopXML)
	q := twig.MustParse("//person/price")
	if got := e.SuggestValues(q, 1, "", 10); got != nil {
		t.Fatalf("infeasible values = %v", texts(got))
	}
}

func TestSuggestValuesNaiveUnknownTag(t *testing.T) {
	e := mustEngine(t, shopXML)
	if got := e.SuggestValuesNaive("nosuch", "", 5); got != nil {
		t.Fatal("unknown tag should yield nil")
	}
	if got := e.SuggestValuesNaive("items", "", 5); got != nil {
		t.Fatal("valueless tag should yield nil")
	}
}

func TestWildcardAnchor(t *testing.T) {
	e := mustEngine(t, shopXML)
	q := twig.MustParse("//*")
	got := e.SuggestTags(q, q.Root.ID, twig.Child, "n", 10)
	if !contains(got, "name") {
		t.Fatalf("wildcard anchor n* = %v", texts(got))
	}
}

func TestEditDistanceAtMost(t *testing.T) {
	cases := []struct {
		a, b string
		max  int
		want bool
	}{
		{"price", "price", 0, true},
		{"price", "pricce", 1, true},
		{"price", "prise", 1, true},
		{"price", "rice", 1, true},
		{"price", "pr", 1, false},
		{"", "", 0, true},
		{"a", "", 1, true},
		{"ab", "", 1, false},
		{"kitten", "sitting", 3, true},
		{"kitten", "sitting", 2, false},
	}
	for _, c := range cases {
		if got := editDistanceAtMost(c.a, c.b, c.max); got != c.want {
			t.Errorf("editDistanceAtMost(%q,%q,%d) = %v, want %v", c.a, c.b, c.max, got, c.want)
		}
	}
}

func TestSuggestValuesTruncatedFallsBackToTagTrie(t *testing.T) {
	// More distinct values on one path than the DataGuide samples: the
	// engine must fall back to the tag-level value trie and still complete
	// values the sample dropped.
	var b strings.Builder
	b.WriteString("<cat>")
	for i := 0; i < 80; i++ {
		fmt.Fprintf(&b, "<prod><label>val%03d</label></prod>", i)
	}
	b.WriteString("</cat>")
	e := mustEngine(t, b.String())
	q := twig.MustParse("//prod/label")
	got := e.SuggestValues(q, 1, "val07", 20)
	// val070..val079: all ten must be reachable even though the path sample
	// holds only the first 64 distinct values.
	if len(got) != 10 {
		t.Fatalf("truncated-path completion = %d candidates, want 10: %v", len(got), texts(got))
	}
}

func TestSuggestValuesTruncatedDedupsSampleAndTrie(t *testing.T) {
	var b strings.Builder
	b.WriteString("<cat>")
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&b, "<prod><label>u%02d</label></prod>", i)
	}
	// One heavy value inside the sampled range.
	for i := 0; i < 5; i++ {
		b.WriteString("<prod><label>u00</label></prod>")
	}
	b.WriteString("</cat>")
	e := mustEngine(t, b.String())
	q := twig.MustParse("//prod/label")
	got := e.SuggestValues(q, 1, "u0", 30)
	seen := map[string]int{}
	for _, c := range got {
		seen[c.Text]++
		if seen[c.Text] > 1 {
			t.Fatalf("duplicate candidate %q", c.Text)
		}
	}
	if got[0].Text != "u00" {
		t.Fatalf("heavy value should rank first: %v", texts(got))
	}
}

func TestExplainTag(t *testing.T) {
	e := mustEngine(t, shopXML)

	// "name" under //shop via descendant: two paths, item first (3 > 2).
	q := twig.MustParse("//shop")
	occs := e.ExplainTag(q, q.Root.ID, twig.Descendant, "name", 0)
	if len(occs) != 2 {
		t.Fatalf("occurrences = %+v", occs)
	}
	if occs[0].Path != "/shop/items/item/name" || occs[0].Count != 3 {
		t.Fatalf("top occurrence = %+v", occs[0])
	}
	if occs[1].Path != "/shop/people/person/name" || occs[1].Count != 2 {
		t.Fatalf("second occurrence = %+v", occs[1])
	}

	// Child axis restricts to direct children.
	q = twig.MustParse("//item")
	occs = e.ExplainTag(q, q.Root.ID, twig.Child, "name", 0)
	if len(occs) != 1 || occs[0].Count != 3 {
		t.Fatalf("item/name = %+v", occs)
	}

	// max caps the list.
	q = twig.MustParse("//shop")
	if got := e.ExplainTag(q, q.Root.ID, twig.Descendant, "name", 1); len(got) != 1 {
		t.Fatalf("max=1 returned %d", len(got))
	}
}

func TestExplainTagRoot(t *testing.T) {
	e := mustEngine(t, shopXML)
	occs := e.ExplainTag(nil, NewRoot, twig.Child, "shop", 0)
	if len(occs) != 1 || occs[0].Path != "/shop" {
		t.Fatalf("root explain = %+v", occs)
	}
	occs = e.ExplainTag(nil, NewRoot, twig.Descendant, "person", 0)
	if len(occs) != 1 || occs[0].Path != "/shop/people/person" {
		t.Fatalf("descendant explain = %+v", occs)
	}
	if got := e.ExplainTag(nil, NewRoot, twig.Child, "nosuch", 0); got != nil {
		t.Fatal("unknown tag should explain to nil")
	}
}

func TestExplainTagInfeasible(t *testing.T) {
	e := mustEngine(t, shopXML)
	q := twig.MustParse("//person")
	if got := e.ExplainTag(q, q.Root.ID, twig.Child, "price", 0); len(got) != 0 {
		t.Fatalf("price under person should not occur: %+v", got)
	}
}
