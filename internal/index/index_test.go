package index

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"lotusx/internal/doc"
)

const bibXML = `<dblp>
  <article key="a1">
    <author>Jiaheng Lu</author>
    <title>Holistic Twig Joins</title>
    <year>2005</year>
  </article>
  <article key="a2">
    <author>Chunbin Lin</author>
    <author>Jiaheng Lu</author>
    <title>LotusX Position-Aware Search</title>
    <year>2012</year>
  </article>
  <book key="b1">
    <author>Tok Wang Ling</author>
    <title>XML Databases</title>
  </book>
</dblp>`

func mustIndex(t *testing.T, src string) *Index {
	t.Helper()
	d, err := doc.FromString("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return Build(d)
}

// TestTokenFoldUnified pins the canonical token fold: DF and TokenPostings
// must agree for every spelling of a token — mixed case, stray punctuation,
// Unicode case pairs — because both go through foldToken, the same fold
// Tokenize applies while indexing.  A divergence here silently skews
// ranking (DF) against retrieval (postings).
func TestTokenFoldUnified(t *testing.T) {
	ix := mustIndex(t, bibXML)
	inputs := []string{
		"twig", "Twig", "TWIG", " Twig.", "title", "Title", "TITLE",
		"jiaheng", "JiaHeng", "2005", "lotusx", "LotusX", "Ärger", "ÄRGER",
		"no such token", "",
	}
	for _, in := range inputs {
		if df, n := ix.DF(in), len(ix.TokenPostings(in)); df != n {
			t.Errorf("DF(%q) = %d but len(TokenPostings(%q)) = %d", in, df, in, n)
		}
	}
	// Spellings that fold to the same token hit the same postings list.
	if got, want := ix.DF(" Twig."), ix.DF("twig"); got != want || want == 0 {
		t.Errorf("DF(\" Twig.\") = %d, want %d (nonzero)", got, want)
	}
}

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"Jiaheng Lu", "jiaheng lu"},
		{"LotusX: Position-Aware XML!", "lotusx position aware xml"},
		{"  year 2012 ", "year 2012"},
		{"", ""},
		{"---", ""},
		{"Déjà vu", "déjà vu"},
	}
	for _, c := range cases {
		got := strings.Join(Tokenize(c.in), " ")
		if got != c.want {
			t.Errorf("Tokenize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTokenizeDropsOverlongTokens(t *testing.T) {
	long := strings.Repeat("x", maxTokenLen+1)
	if got := Tokenize(long + " ok"); len(got) != 1 || got[0] != "ok" {
		t.Errorf("got %v", got)
	}
}

func TestTagStreams(t *testing.T) {
	ix := mustIndex(t, bibXML)
	d := ix.Document()
	tags := d.Tags()

	if got := ix.TagCount(tags.ID("author")); got != 4 {
		t.Errorf("author count = %d, want 4", got)
	}
	if got := ix.TagCount(tags.ID("article")); got != 2 {
		t.Errorf("article count = %d, want 2", got)
	}
	if got := ix.TagCount(doc.NoTag); got != 0 {
		t.Errorf("NoTag count = %d, want 0", got)
	}

	// Streams are in document order.
	nodes := ix.Nodes(tags.ID("author"))
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatal("stream not in document order")
		}
	}
	for _, n := range nodes {
		if d.TagName(n) != "author" {
			t.Fatalf("stream node tagged %q", d.TagName(n))
		}
	}
}

func TestTokenPostings(t *testing.T) {
	ix := mustIndex(t, bibXML)
	d := ix.Document()

	lu := ix.TokenPostings("Lu") // case-insensitive lookup
	if len(lu) != 2 {
		t.Fatalf("postings(lu) = %d nodes, want 2", len(lu))
	}
	for _, n := range lu {
		if !strings.Contains(strings.ToLower(d.Value(n)), "lu") {
			t.Errorf("node value %q lacks token", d.Value(n))
		}
	}
	if got := ix.TokenPostings("nosuchtoken"); got != nil {
		t.Errorf("unexpected postings %v", got)
	}
	if df := ix.DF("jiaheng"); df != 2 {
		t.Errorf("DF(jiaheng) = %d, want 2", df)
	}
}

func TestExactMatches(t *testing.T) {
	ix := mustIndex(t, bibXML)
	got := ix.ExactMatches("JIAHENG LU")
	if len(got) != 2 {
		t.Fatalf("exact = %d, want 2", len(got))
	}
	if got := ix.ExactMatches("Jiaheng"); len(got) != 0 {
		t.Fatal("partial value should not match exactly")
	}
	if got := ix.ExactMatches("  jiaheng lu  "); len(got) != 2 {
		t.Fatal("surrounding whitespace should be ignored")
	}
}

func TestContainsAll(t *testing.T) {
	ix := mustIndex(t, bibXML)
	d := ix.Document()

	got := ix.ContainsAll("twig holistic")
	if len(got) != 1 || d.Value(got[0]) != "Holistic Twig Joins" {
		t.Fatalf("ContainsAll = %v", got)
	}
	if got := ix.ContainsAll("twig lotusx"); len(got) != 0 {
		t.Fatal("tokens from different nodes should not match")
	}
	if got := ix.ContainsAll(""); got != nil {
		t.Fatal("empty query should return nil")
	}
	if got := ix.ContainsAll("jiaheng"); len(got) != 2 {
		t.Fatalf("single token = %v", got)
	}
}

func TestValuedNodes(t *testing.T) {
	ix := mustIndex(t, bibXML)
	// 3 keys + 4 authors + 3 titles + 2 years = 12 valued nodes.
	if got := ix.ValuedNodes(); got != 12 {
		t.Errorf("ValuedNodes = %d, want 12", got)
	}
}

func TestTagTrie(t *testing.T) {
	ix := mustIndex(t, bibXML)
	got := ix.TagTrie().Complete("a", 10)
	var names []string
	for _, e := range got {
		names = append(names, e.Word)
	}
	// author (4) > article (2) > @key? no, @key doesn't start with 'a'... it
	// does not ('@'). So: author, article.
	if strings.Join(names, " ") != "author article" {
		t.Fatalf("tag completion = %v", names)
	}
	if got[0].Weight != 4 {
		t.Errorf("author weight = %d, want 4", got[0].Weight)
	}
	tagID := doc.TagID(got[0].Datum)
	if ix.Document().Tags().Name(tagID) != "author" {
		t.Errorf("datum does not round-trip to TagID")
	}
}

func TestValueTrie(t *testing.T) {
	ix := mustIndex(t, bibXML)
	tags := ix.Document().Tags()
	vt := ix.ValueTrie(tags.ID("author"))
	if vt == nil {
		t.Fatal("author value trie missing")
	}
	got := vt.Complete("jiaheng", 5)
	if len(got) != 1 || got[0].Word != "jiaheng lu" || got[0].Weight != 2 {
		t.Fatalf("value completion = %v", got)
	}
	if ix.ValueTrie(tags.ID("dblp")) != nil {
		t.Error("dblp has no values; trie should be nil")
	}
}

func TestStreamCursor(t *testing.T) {
	ix := mustIndex(t, bibXML)
	tags := ix.Document().Tags()
	s := ix.Stream(tags.ID("author"))
	if s.Len() != 4 || s.Remaining() != 4 {
		t.Fatalf("Len = %d", s.Len())
	}
	var visited int
	var last doc.NodeID = -1
	for !s.EOF() {
		n := s.Head()
		if n <= last {
			t.Fatal("stream out of order")
		}
		if s.Region() != ix.Document().Region(n) {
			t.Fatal("Region mismatch")
		}
		last = n
		visited++
		s.Advance()
	}
	if visited != 4 {
		t.Fatalf("visited = %d", visited)
	}
	s.Reset()
	if s.EOF() || s.Remaining() != 4 {
		t.Fatal("Reset did not rewind")
	}
	c := s.Clone()
	c.Advance()
	if s.Head() == c.Head() {
		t.Fatal("Clone is not independent")
	}
}

func TestFilteredStream(t *testing.T) {
	ix := mustIndex(t, bibXML)
	d := ix.Document()
	tags := d.Tags()
	s := ix.FilteredStream(tags.ID("author"), func(n doc.NodeID) bool {
		return strings.Contains(d.Value(n), "Lu")
	})
	if s.Len() != 2 {
		t.Fatalf("filtered len = %d, want 2", s.Len())
	}
}

func TestWildcardStream(t *testing.T) {
	ix := mustIndex(t, bibXML)
	d := ix.Document()
	s := ix.WildcardStream()
	for !s.EOF() {
		if d.Kind(s.Head()) != doc.Element {
			t.Fatal("wildcard stream contains non-element")
		}
		s.Advance()
	}
	// 1 dblp + 2 article + 1 book + 4 author + 3 title + 2 year = 13.
	if s.Len() != 13 {
		t.Fatalf("wildcard len = %d, want 13", s.Len())
	}
	// Cached second call returns same backing list.
	if len(ix.AllElements()) != 13 {
		t.Fatal("AllElements inconsistent")
	}
}

func TestSaveLoadRebuilds(t *testing.T) {
	ix := mustIndex(t, bibXML)
	var buf bytes.Buffer
	if err := SaveDocument(&buf, ix.Document()); err != nil {
		t.Fatal(err)
	}
	d, err := LoadDocument(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ix2 := Build(d)
	if ix2.ValuedNodes() != ix.ValuedNodes() {
		t.Error("ValuedNodes differ after reload")
	}
	tags := ix2.Document().Tags()
	if ix2.TagCount(tags.ID("author")) != 4 {
		t.Error("author stream differs after reload")
	}
	if len(ix2.TokenPostings("jiaheng")) != 2 {
		t.Error("postings differ after reload")
	}
}

func TestLoadError(t *testing.T) {
	if _, err := LoadDocument(strings.NewReader("junk")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}
