package doc

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

const bibXML = `<dblp>
  <article key="a1">
    <author>Jiaheng Lu</author>
    <title>Twig Joins</title>
    <year>2005</year>
  </article>
  <article key="a2">
    <author>Chunbin Lin</author>
    <author>Jiaheng Lu</author>
    <title>LotusX</title>
    <year>2012</year>
  </article>
</dblp>`

func mustDoc(t *testing.T, src string) *Document {
	t.Helper()
	d, err := FromString("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBuildBasicShape(t *testing.T) {
	d := mustDoc(t, bibXML)
	// dblp + 2 article + 2 @key + 3+4 children? article1: author,title,year;
	// article2: author,author,title,year. Total = 1 + 2 + 2 + 3 + 4 = 12.
	if d.Len() != 12 {
		t.Fatalf("Len = %d, want 12", d.Len())
	}
	if d.TagName(d.Root()) != "dblp" {
		t.Fatalf("root tag = %q", d.TagName(d.Root()))
	}
	if d.Parent(d.Root()) != None {
		t.Fatal("root parent should be None")
	}
}

func TestTagDict(t *testing.T) {
	d := mustDoc(t, bibXML)
	tags := d.Tags()
	for _, name := range []string{"dblp", "article", "@key", "author", "title", "year"} {
		if tags.ID(name) == NoTag {
			t.Errorf("tag %q missing", name)
		}
	}
	if tags.ID("nosuch") != NoTag {
		t.Error("unknown tag should map to NoTag")
	}
	if tags.Len() != 6 {
		t.Errorf("Len = %d, want 6", tags.Len())
	}
	if got := tags.Name(tags.ID("author")); got != "author" {
		t.Errorf("round-trip name = %q", got)
	}
}

func TestValuesAndAttributes(t *testing.T) {
	d := mustDoc(t, bibXML)
	var authors, keys []string
	for i := 0; i < d.Len(); i++ {
		n := NodeID(i)
		switch d.TagName(n) {
		case "author":
			authors = append(authors, d.Value(n))
			if d.Kind(n) != Element {
				t.Errorf("author should be an element")
			}
		case "@key":
			keys = append(keys, d.Value(n))
			if d.Kind(n) != Attribute {
				t.Errorf("@key should be an attribute node")
			}
			if d.TagName(d.Parent(n)) != "article" {
				t.Errorf("@key parent = %q", d.TagName(d.Parent(n)))
			}
		}
	}
	wantAuthors := []string{"Jiaheng Lu", "Chunbin Lin", "Jiaheng Lu"}
	if strings.Join(authors, "|") != strings.Join(wantAuthors, "|") {
		t.Errorf("authors = %v", authors)
	}
	if strings.Join(keys, "|") != "a1|a2" {
		t.Errorf("keys = %v", keys)
	}
}

func TestMixedContentConcatenation(t *testing.T) {
	d := mustDoc(t, `<p>hello <b>bold</b> world</p>`)
	root := d.Root()
	if got := d.Value(root); got != "hello world" {
		t.Errorf("mixed value = %q, want %q", got, "hello world")
	}
	kids := d.Children(root, nil)
	if len(kids) != 1 || d.Value(kids[0]) != "bold" {
		t.Errorf("children = %v", kids)
	}
}

func TestRegionsAreConsistent(t *testing.T) {
	d := mustDoc(t, bibXML)
	for i := 0; i < d.Len(); i++ {
		n := NodeID(i)
		r := d.Region(n)
		if r.End <= r.Start {
			t.Fatalf("node %d has invalid region %+v", i, r)
		}
		if p := d.Parent(n); p != None {
			if !d.Region(p).IsParent(r) {
				t.Fatalf("parent region %+v does not contain child %+v", d.Region(p), r)
			}
			if !d.IsAncestor(p, n) {
				t.Fatalf("IsAncestor(parent) false for node %d", i)
			}
		}
	}
}

func TestDeweyMatchesParents(t *testing.T) {
	d := mustDoc(t, bibXML)
	for i := 0; i < d.Len(); i++ {
		n := NodeID(i)
		dl := d.Dewey(n)
		if p := d.Parent(n); p != None {
			pl := d.Dewey(p)
			if !pl.IsAncestor(dl) {
				t.Fatalf("dewey %v is not ancestor of %v", pl, dl)
			}
			if len(dl) != len(pl)+1 {
				t.Fatalf("dewey level mismatch: %v vs %v", pl, dl)
			}
		} else if len(dl) != 1 {
			t.Fatalf("root dewey = %v", dl)
		}
	}
}

func TestDocumentOrderIsNodeIDOrder(t *testing.T) {
	d := mustDoc(t, bibXML)
	for i := 1; i < d.Len(); i++ {
		if !d.Region(NodeID(i - 1)).Precedes(d.Region(NodeID(i))) {
			t.Fatalf("node %d does not precede node %d", i-1, i)
		}
	}
}

func TestChildrenAndSiblings(t *testing.T) {
	d := mustDoc(t, bibXML)
	root := d.Root()
	kids := d.Children(root, nil)
	if len(kids) != 2 {
		t.Fatalf("root children = %d, want 2", len(kids))
	}
	a2 := kids[1]
	tags := []string{}
	for _, c := range d.Children(a2, nil) {
		tags = append(tags, d.TagName(c))
	}
	want := "@key author author title year"
	if strings.Join(tags, " ") != want {
		t.Errorf("article2 children = %v, want %q", tags, want)
	}
}

func TestSubtreeSize(t *testing.T) {
	d := mustDoc(t, bibXML)
	if got := d.SubtreeSize(d.Root()); got != d.Len() {
		t.Errorf("root subtree = %d, want %d", got, d.Len())
	}
	kids := d.Children(d.Root(), nil)
	if got := d.SubtreeSize(kids[0]); got != 5 {
		t.Errorf("article1 subtree = %d, want 5", got)
	}
}

func TestPath(t *testing.T) {
	d := mustDoc(t, bibXML)
	var authorNode NodeID = None
	for i := 0; i < d.Len(); i++ {
		if d.TagName(NodeID(i)) == "author" {
			authorNode = NodeID(i)
			break
		}
	}
	if got := d.Path(authorNode); got != "/dblp/article/author" {
		t.Errorf("path = %q", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := mustDoc(t, bibXML)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() || d2.Name() != d.Name() {
		t.Fatalf("round-trip len/name mismatch")
	}
	for i := 0; i < d.Len(); i++ {
		n := NodeID(i)
		if d.TagName(n) != d2.TagName(n) || d.Value(n) != d2.Value(n) ||
			d.Region(n) != d2.Region(n) || d.Parent(n) != d2.Parent(n) ||
			d.Kind(n) != d2.Kind(n) ||
			d.Dewey(n).Compare(d2.Dewey(n)) != 0 {
			t.Fatalf("node %d differs after round trip", i)
		}
	}
}

// TestSaveAllocationsAreConstant: Save allocates its buffered writer and
// nothing per node, value or integer — the same few allocations for a
// document of a handful of nodes as for one of thousands.
func TestSaveAllocationsAreConstant(t *testing.T) {
	var big strings.Builder
	big.WriteString("<dblp>")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&big, `<article key="a%d"><title>Title %d</title><year>%d</year></article>`, i, i, 1990+i%30)
	}
	big.WriteString("</dblp>")
	for _, src := range []string{bibXML, big.String()} {
		d := mustDoc(t, src)
		allocs := testing.AllocsPerRun(5, func() {
			if err := d.Save(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 {
			t.Errorf("Save of %d nodes: %.0f allocations, want at most 4", d.Len(), allocs)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a document")); err == nil {
		t.Fatal("expected error")
	}
	if _, err := Load(strings.NewReader("LTXD\xff\xff\xff\xff")); err == nil {
		t.Fatal("expected error for bad version")
	}
	if _, err := Load(strings.NewReader("")); err == nil {
		t.Fatal("expected error for empty input")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	d := mustDoc(t, bibXML)
	rendered := d.XMLString(d.Root())
	d2, err := FromString("rendered", rendered)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, rendered)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("re-parsed len = %d, want %d\n%s", d2.Len(), d.Len(), rendered)
	}
	for i := 0; i < d.Len(); i++ {
		n := NodeID(i)
		if d.TagName(n) != d2.TagName(n) || d.Value(n) != d2.Value(n) {
			t.Fatalf("node %d differs after render round trip: %q/%q vs %q/%q",
				i, d.TagName(n), d.Value(n), d2.TagName(n), d2.Value(n))
		}
	}
}

func TestRenderEscapes(t *testing.T) {
	d := mustDoc(t, `<a t="x&amp;y">5 &lt; 6</a>`)
	out := d.XMLString(d.Root())
	if !strings.Contains(out, "x&amp;y") || !strings.Contains(out, "5 &lt; 6") {
		t.Errorf("escaping missing in %q", out)
	}
	if _, err := FromString("re", out); err != nil {
		t.Errorf("escaped output does not re-parse: %v", err)
	}
}

func TestParseErrorPropagates(t *testing.T) {
	if _, err := FromString("bad", "<a><b></a>"); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := FromString("empty", ""); err == nil {
		t.Fatal("expected error for empty doc")
	}
}

func TestDeepDocument(t *testing.T) {
	var b strings.Builder
	const depth = 500
	for i := 0; i < depth; i++ {
		b.WriteString("<n>")
	}
	b.WriteString("leaf")
	for i := 0; i < depth; i++ {
		b.WriteString("</n>")
	}
	d := mustDoc(t, b.String())
	if d.Len() != depth {
		t.Fatalf("Len = %d", d.Len())
	}
	deepest := NodeID(depth - 1)
	if d.Value(deepest) != "leaf" {
		t.Errorf("deepest value = %q", d.Value(deepest))
	}
	if int(d.Region(deepest).Level) != depth-1 {
		t.Errorf("deepest level = %d", d.Region(deepest).Level)
	}
	if len(d.Dewey(deepest)) != depth {
		t.Errorf("deepest dewey len = %d", len(d.Dewey(deepest)))
	}
}

func TestNamespacePrefixedTags(t *testing.T) {
	// Namespace prefixes are kept literally: "dc:title" is one tag name.
	d := mustDoc(t, `<rdf:RDF xmlns:dc="http://example/dc">
	  <dc:title>XML</dc:title>
	</rdf:RDF>`)
	tags := d.Tags()
	if tags.ID("dc:title") == NoTag {
		t.Fatal("prefixed tag not interned literally")
	}
	if tags.ID("@xmlns:dc") == NoTag {
		t.Fatal("namespace declaration should surface as an attribute node")
	}
	var title NodeID = None
	for i := 0; i < d.Len(); i++ {
		if d.TagName(NodeID(i)) == "dc:title" {
			title = NodeID(i)
		}
	}
	if title == None || d.Value(title) != "XML" {
		t.Fatalf("dc:title value = %v", title)
	}
}
