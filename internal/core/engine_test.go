package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"strings"
	"testing"

	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/join"
	"lotusx/internal/twig"
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
  <article key="a3">
    <author>Bogdan Cautis</author>
    <title>Query Rewriting Methods</title>
    <year>2012</year>
  </article>
  <book key="b1">
    <author>Tok Wang Ling</author>
    <title>XML Databases</title>
  </book>
</dblp>`

func mustEngine(t testing.TB) *Engine {
	t.Helper()
	e, err := FromReader("bib", strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineStats(t *testing.T) {
	e := mustEngine(t)
	st := e.Stats()
	if st.Document != "bib" || st.Nodes == 0 || st.Tags == 0 || st.GuidePaths == 0 || st.Valued == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSearchString(t *testing.T) {
	e := mustEngine(t)
	res, err := e.SearchString(`//article[author = "Jiaheng Lu"]/title`, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 || res.Exact != 2 {
		t.Fatalf("answers = %d exact = %d, want 2/2", len(res.Answers), res.Exact)
	}
	d := e.Document()
	for _, a := range res.Answers {
		if d.TagName(a.Node) != "title" {
			t.Errorf("answer tagged %q, want title", d.TagName(a.Node))
		}
		if a.Rewrite != nil {
			t.Error("exact answer should carry no rewrite")
		}
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not recorded")
	}
}

func TestSearchInvalidQuery(t *testing.T) {
	e := mustEngine(t)
	if _, err := e.SearchString("not a query", SearchOptions{}); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestSearchAllAlgorithmsAgree(t *testing.T) {
	e := mustEngine(t)
	var ref []string
	for _, alg := range join.Algorithms {
		res, err := e.SearchString(`//article[year = "2012"]`, SearchOptions{Algorithm: alg, K: 100})
		if err != nil {
			t.Fatal(err)
		}
		var nodes []string
		for _, a := range res.Answers {
			nodes = append(nodes, e.Snippet(a.Node, 30))
		}
		if ref == nil {
			ref = nodes
			continue
		}
		if strings.Join(nodes, "|") != strings.Join(ref, "|") {
			t.Fatalf("%s ranking disagrees", alg)
		}
	}
}

func TestSearchDeduplicatesOutputNodes(t *testing.T) {
	e := mustEngine(t)
	// //article[author] has 4 matches (a2 has two authors) but 3 distinct
	// articles.
	res, err := e.SearchString(`//article[author]`, SearchOptions{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 3 {
		t.Fatalf("answers = %d, want 3 distinct articles", len(res.Answers))
	}
}

func TestSearchKLimit(t *testing.T) {
	e := mustEngine(t)
	res, err := e.SearchString(`//author`, SearchOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 2 {
		t.Fatalf("answers = %d, want 2", len(res.Answers))
	}
}

func TestSearchWithRewriteRecoversTypo(t *testing.T) {
	e := mustEngine(t)
	res, err := e.SearchString(`//article/autor`, SearchOptions{Rewrite: true, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact != 0 {
		t.Fatalf("exact = %d, want 0", res.Exact)
	}
	if len(res.Answers) == 0 {
		t.Fatal("rewriting recovered nothing")
	}
	first := res.Answers[0]
	if first.Rewrite == nil {
		t.Fatal("recovered answer should carry its rewrite")
	}
	if e.Document().TagName(first.Node) != "author" {
		t.Errorf("recovered node tagged %q", e.Document().TagName(first.Node))
	}
	if res.RewritesTried == 0 {
		t.Error("RewritesTried not counted")
	}
}

func TestSearchRewriteDisabledStaysEmpty(t *testing.T) {
	e := mustEngine(t)
	res, err := e.SearchString(`//article/autor`, SearchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 0 {
		t.Fatal("rewriting should be off by default")
	}
}

func TestSearchExactAnswersPrecedeRewrites(t *testing.T) {
	e := mustEngine(t)
	// year = 2005 has 1 exact; with rewriting and K=3, relaxed answers
	// (contains/drop) follow the exact one.
	res, err := e.SearchString(`//article[year = "2005"]`, SearchOptions{Rewrite: true, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exact != 1 {
		t.Fatalf("exact = %d, want 1", res.Exact)
	}
	if len(res.Answers) <= 1 {
		t.Fatalf("expected relaxed answers after the exact one, got %d", len(res.Answers))
	}
	if res.Answers[0].Rewrite != nil {
		t.Fatal("first answer should be exact")
	}
	for _, a := range res.Answers[1:] {
		if a.Rewrite == nil {
			t.Fatal("post-exact answers should come from rewrites")
		}
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	e := mustEngine(t)
	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("LTXI\x03\x00\x00\x00")) {
		t.Fatalf("Save wrote header % x, want an LTXI version-3 file", buf.Bytes()[:8])
	}
	// A bare document file, which earlier builds' Save wrote, opens too.
	var bare bytes.Buffer
	if err := e.Document().Save(&bare); err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string]*bytes.Buffer{"index file": &buf, "bare document": &bare} {
		e2, err := Open(file)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r1, _ := e.SearchString(`//article/title`, SearchOptions{K: 100})
		r2, _ := e2.SearchString(`//article/title`, SearchOptions{K: 100})
		if len(r1.Answers) != len(r2.Answers) {
			t.Fatalf("%s: reloaded engine answers differ", name)
		}
	}
}

func TestOpenGarbage(t *testing.T) {
	// Neither magic: read as an index file, so the error is typed.
	if _, err := Open(strings.NewReader("garbage")); !errors.Is(err, index.ErrCorrupt) {
		t.Fatalf("err = %v, want index.ErrCorrupt", err)
	}
}

func TestFromFileMissing(t *testing.T) {
	if _, err := FromFile("/nonexistent/file.xml"); err == nil {
		t.Fatal("expected error")
	}
}

func TestSnippetTruncation(t *testing.T) {
	e := mustEngine(t)
	full := e.Snippet(e.Document().Root(), 0)
	if !strings.Contains(full, "<dblp>") {
		t.Fatalf("snippet = %q", full)
	}
	short := e.Snippet(e.Document().Root(), 10)
	if len(short) > 14 { // 10 + ellipsis rune
		t.Fatalf("short snippet = %q", short)
	}
}

func TestValidate(t *testing.T) {
	e := mustEngine(t)
	if err := e.Validate(nil); err == nil {
		t.Fatal("nil query should fail")
	}
	q := twig.NewQuery("article")
	if err := e.Validate(q); err != nil {
		t.Fatal(err)
	}
}

// TestSaveFullOpenRoundTrip: a version-1 index file, which the former
// SaveFull wrote with the token postings after the document, opens to the
// same answers.  Its postings section here is empty, so a value predicate
// answers only if Open indexes the document afresh.
func TestSaveFullOpenRoundTrip(t *testing.T) {
	e := mustEngine(t)
	var docBuf bytes.Buffer
	if err := e.Document().Save(&docBuf); err != nil {
		t.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint64(nil, uint64(docBuf.Len()))
	payload = append(payload, docBuf.Bytes()...)
	payload = append(payload, 0, 0, 0, 0, 0, 0, 0, 0) // valued, zero tokens
	file := binary.LittleEndian.AppendUint32([]byte("LTXI"), 1)
	file = binary.LittleEndian.AppendUint64(file, uint64(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
	e2, err := Open(bytes.NewReader(append(file, payload...)))
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := e.SearchString(`//article[title contains "twig"]`, SearchOptions{K: 10})
	r2, _ := e2.SearchString(`//article[title contains "twig"]`, SearchOptions{K: 10})
	if len(r1.Answers) != len(r2.Answers) || len(r1.Answers) == 0 {
		t.Fatalf("version-1 reload differs: %d vs %d", len(r1.Answers), len(r2.Answers))
	}
	// Completion works over the reloaded engine too.
	s := e2.NewSession()
	root, _ := s.Root("article", twig.Descendant)
	cands, err := s.SuggestTags(root, twig.Child, "a", 5)
	if err != nil || len(cands) != 1 || cands[0].Text != "author" {
		t.Fatalf("completion after reload = %v, %v", cands, err)
	}
}

func TestSearchPagination(t *testing.T) {
	e := mustEngine(t)
	all, err := e.SearchString(`//author`, SearchOptions{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Answers) != 5 {
		t.Fatalf("total answers = %d, want 5", len(all.Answers))
	}
	page1, err := e.SearchString(`//author`, SearchOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	page2, err := e.SearchString(`//author`, SearchOptions{K: 2, Offset: 2})
	if err != nil {
		t.Fatal(err)
	}
	page3, err := e.SearchString(`//author`, SearchOptions{K: 2, Offset: 4})
	if err != nil {
		t.Fatal(err)
	}
	var got []doc.NodeID
	for _, p := range [][]Answer{page1.Answers, page2.Answers, page3.Answers} {
		for _, a := range p {
			got = append(got, a.Node)
		}
	}
	if len(got) != 5 {
		t.Fatalf("paged answers = %d, want 5", len(got))
	}
	for i, a := range all.Answers {
		if got[i] != a.Node {
			t.Fatalf("page order diverges at %d", i)
		}
	}
	// Offset past the end yields an empty page, no error.
	empty, err := e.SearchString(`//author`, SearchOptions{K: 2, Offset: 50})
	if err != nil || len(empty.Answers) != 0 {
		t.Fatalf("far page = %d answers, %v", len(empty.Answers), err)
	}
	// Negative offsets are treated as zero.
	neg, err := e.SearchString(`//author`, SearchOptions{K: 2, Offset: -3})
	if err != nil || len(neg.Answers) != 2 {
		t.Fatalf("negative offset = %d answers, %v", len(neg.Answers), err)
	}
}

func TestSearchPaginationAcrossRewriteBoundary(t *testing.T) {
	e := mustEngine(t)
	// 1 exact answer for year=2005; page 2 with rewriting reaches into the
	// relaxed answers and Exact reflects that none on this page are exact.
	page2, err := e.SearchString(`//article[year = "2005"]`,
		SearchOptions{K: 2, Offset: 1, Rewrite: true})
	if err != nil {
		t.Fatal(err)
	}
	if page2.Exact != 0 {
		t.Fatalf("page-2 exact = %d, want 0", page2.Exact)
	}
	if len(page2.Answers) == 0 || page2.Answers[0].Rewrite == nil {
		t.Fatalf("page-2 answers = %+v", page2.Answers)
	}
}
