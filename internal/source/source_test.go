package source

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lotusx/internal/corpus"
	"lotusx/internal/doc"
)

func TestBuildEngineFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(path, []byte("<a><b>x</b></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Source{In: path}.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Nodes != 2 {
		t.Fatalf("nodes = %d", e.Stats().Nodes)
	}
}

func TestBuildEngineFromIndexFile(t *testing.T) {
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "doc.xml")
	idxPath := filepath.Join(dir, "doc.ltx")
	if err := os.WriteFile(xmlPath, []byte("<a><b>x</b></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Source{In: xmlPath}.Engine()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e2, err := Source{Index: idxPath}.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if e2.Stats().Nodes != 2 {
		t.Fatalf("reloaded nodes = %d", e2.Stats().Nodes)
	}
}

// TestBuildEngineOnceOnTheFinalSubstrate: every kind of input — XML, a bare
// document file, an index file — builds one engine over the same document,
// and an index file of version 1 is indexed from its document: the postings
// it stores are ignored.
func TestBuildEngineOnceOnTheFinalSubstrate(t *testing.T) {
	dir := t.TempDir()
	xmlPath := filepath.Join(dir, "rep.xml")
	var body strings.Builder
	body.WriteString("<dblp>")
	for i := 0; i < 400; i++ {
		body.WriteString(`<article key="a1"><author>Jiaheng Lu</author><title>Holistic Twig Joins</title><year>2005</year></article>`)
	}
	body.WriteString("</dblp>")
	if err := os.WriteFile(xmlPath, []byte(body.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	raw, err := Source{In: xmlPath}.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(raw.Index().TokenPostings("jiaheng")); n != 400 {
		t.Fatalf("built index: %d postings for jiaheng, want 400", n)
	}
	save := func(name string, write func(io.Writer) error) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bare := save("doc.ltxd", raw.Document().Save)
	indexFile := save("index.ltx", raw.Save)

	// Version 1 stored a length-prefixed document, then the valued count and
	// the postings: here a section of zero tokens.
	var docBuf bytes.Buffer
	if err := raw.Document().Save(&docBuf); err != nil {
		t.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint64(nil, uint64(docBuf.Len()))
	payload = append(payload, docBuf.Bytes()...)
	payload = append(payload, 0, 0, 0, 0, 0, 0, 0, 0) // valued, zero tokens
	hdr := binary.LittleEndian.AppendUint32([]byte("LTXI"), 1)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	v1 := filepath.Join(dir, "v1.ltx")
	if err := os.WriteFile(v1, append(hdr, payload...), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, in := range []struct{ xml, index string }{{xml: xmlPath}, {index: bare}, {index: indexFile}, {index: v1}} {
		e, err := Source{In: in.xml, Index: in.index}.Engine()
		if err != nil {
			t.Fatal(err)
		}
		if e.Stats() != raw.Stats() {
			t.Errorf("%+v: stats=%+v, want %+v", in, e.Stats(), raw.Stats())
		}
		if n := len(e.Index().TokenPostings("jiaheng")); n != 400 {
			t.Errorf("%+v: %d postings for jiaheng, want 400", in, n)
		}
		d, err := Source{In: in.xml, Index: in.index}.Document()
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != raw.Stats().Nodes {
			t.Errorf("%+v: Document has %d nodes, want %d", in, d.Len(), raw.Stats().Nodes)
		}
	}
}

// TestBuildSliceIndexesOnlyItsSlice: a shard server (-slice i/n) serves exactly
// shard i of the local -shards n partition, and 0/1 the whole document.
func TestBuildSliceIndexesOnlyItsSlice(t *testing.T) {
	saved := func(d *doc.Document) []byte {
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, kind := range []string{"dblp", "xmark"} {
		src := Source{Kind: kind, Scale: 1, Seed: 7}
		whole, err := src.Slice(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{2, 3, 4} {
			docs, err := corpus.SplitDocument(whole.Document(), parts)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range docs {
				e, err := src.Slice(i, parts)
				if err != nil {
					t.Fatal(err)
				}
				if got := e.Document(); !bytes.Equal(saved(got), saved(want)) {
					t.Errorf("%s slice %d/%d serves %s (%d nodes), want %s (%d nodes) byte for byte",
						kind, i, parts, got.Name(), got.Len(), want.Name(), want.Len())
				}
			}
		}
	}
	if _, err := (Source{Kind: "bogus"}).Slice(0, 2); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestBuildEngineFromDataset(t *testing.T) {
	e, err := Source{Kind: "dblp", Scale: 1, Seed: 7}.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Nodes < 5000 {
		t.Fatalf("dataset engine too small: %d", e.Stats().Nodes)
	}
}

func TestBuildEngineErrors(t *testing.T) {
	if _, err := (Source{}).Engine(); err == nil {
		t.Error("no source should fail")
	}
	if _, err := (Source{In: "/nonexistent.xml"}).Engine(); err == nil {
		t.Error("missing file should fail")
	}
	if _, err := (Source{Index: "/nonexistent.ltx"}).Engine(); err == nil {
		t.Error("missing index should fail")
	}
	if _, err := (Source{Kind: "bogus", Scale: 1, Seed: 1}).Engine(); err == nil {
		t.Error("unknown dataset should fail")
	}
}

// TestBuildEngineSources: the loader the terminal commands share builds an
// engine from a file and from a generator, and fails without a source or
// on a missing index.
func TestBuildEngineSources(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.xml")
	if err := os.WriteFile(path, []byte("<a><b>x</b></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if e, err := (Source{In: path}).Engine(); err != nil || e.Stats().Nodes != 2 {
		t.Fatalf("file source: %v", err)
	}
	if e, err := (Source{Kind: "treebank", Scale: 1, Seed: 1}).Engine(); err != nil || e.Stats().Nodes < 1000 {
		t.Fatalf("dataset source: %v", err)
	}
	if _, err := (Source{}).Engine(); err == nil {
		t.Fatal("no source should fail")
	}
	if _, err := (Source{Index: "/nonexistent.ltx"}).Engine(); err == nil {
		t.Fatal("missing index should fail")
	}
}

// TestNamingRule: a dataset is named by the base of its document's name —
// the corpus a file builds and its shard labels carry no directory — and a
// source naming two inputs is refused rather than resolved by precedence.
func TestNamingRule(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "x.xml")
	if err := os.WriteFile(path, []byte("<r><a>1</a><a>2</a><a>3</a><a>4</a></r>"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := (Source{In: path}).Backend(2)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Info().Name; got != "x.xml" {
		t.Errorf("corpus name %q, want x.xml", got)
	}
	for _, ne := range b.Engines() {
		if !strings.HasPrefix(ne.Name, "x.xml/") {
			t.Errorf("shard label %q, want it under x.xml/", ne.Name)
		}
	}
	if _, err := (Source{In: path, Kind: "xmark"}).Engine(); err == nil {
		t.Error("two inputs should fail")
	}
	if _, err := (Source{In: path}).Backend(0); err == nil {
		t.Error("zero shards should fail")
	}
}
