package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
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
	e, err := buildEngine(path, "", "", 1, 1)
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
	e, err := buildEngine(xmlPath, "", "", 1, 1)
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

	e2, err := buildEngine("", idxPath, "", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e2.Stats().Nodes != 2 {
		t.Fatalf("reloaded nodes = %d", e2.Stats().Nodes)
	}
}

// TestBuildEngineOnceOnTheFinalSubstrate: every kind of input — XML, a
// document-only index file, a full-index file — builds one engine over the
// same document, and a full-index file is served with the postings it
// stores rather than re-tokenized.
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
	raw, err := buildEngine(xmlPath, "", "", 1, 1)
	if err != nil {
		t.Fatal(err)
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
	docOnly := save("doc.ltx", raw.Save)
	full := save("full.ltx", raw.SaveFull)

	for _, in := range []struct{ xml, index string }{{xml: xmlPath}, {index: docOnly}, {index: full}} {
		e, err := buildEngine(in.xml, in.index, "", 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if e.Stats() != raw.Stats() {
			t.Errorf("%+v: stats=%+v, want %+v", in, e.Stats(), raw.Stats())
		}
		d, err := loadDocument(in.xml, in.index, "", 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != raw.Stats().Nodes {
			t.Errorf("%+v: loadDocument has %d nodes, want %d", in, d.Len(), raw.Stats().Nodes)
		}
	}

	// A full-index file whose stored postings section is empty: served as
	// stored, "jiaheng" has no postings; re-tokenized, it would have 400.
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	payload := data[20:]
	docEnd := 8 + binary.LittleEndian.Uint64(payload[:8])
	stripped := append(append([]byte(nil), payload[:docEnd+4]...), 0, 0, 0, 0) // valued, zero tokens
	hdr := append([]byte(nil), data[:20]...)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(stripped)))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(stripped))
	noPostings := filepath.Join(dir, "noposts.ltx")
	if err := os.WriteFile(noPostings, append(hdr, stripped...), 0o644); err != nil {
		t.Fatal(err)
	}
	if n := len(raw.Index().TokenPostings("jiaheng")); n != 400 {
		t.Fatalf("built index: %d postings for jiaheng, want 400", n)
	}
	e, err := buildEngine("", noPostings, "", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(e.Index().TokenPostings("jiaheng")); n != 0 {
		t.Errorf("full-index file re-tokenized on open: %d postings for jiaheng, want the stored 0", n)
	}
}

// TestBuildSliceIndexesOnlyItsSlice: -mode=shard -slice i/n serves exactly
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
		a := shardArgs{kind: kind, scale: 1, seed: 7}
		whole, err := buildSlice(a, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{2, 3, 4} {
			docs, err := corpus.SplitDocument(whole.Document(), parts)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range docs {
				e, err := buildSlice(a, i, parts)
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
	if _, err := buildSlice(shardArgs{in: "", kind: "bogus"}, 0, 2); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestBuildEngineFromDataset(t *testing.T) {
	e, err := buildEngine("", "", "dblp", 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Nodes < 5000 {
		t.Fatalf("dataset engine too small: %d", e.Stats().Nodes)
	}
}

func TestBuildEngineErrors(t *testing.T) {
	if _, err := buildEngine("", "", "", 1, 1); err == nil {
		t.Error("no source should fail")
	}
	if _, err := buildEngine("/nonexistent.xml", "", "", 1, 1); err == nil {
		t.Error("missing file should fail")
	}
	if _, err := buildEngine("", "/nonexistent.ltx", "", 1, 1); err == nil {
		t.Error("missing index should fail")
	}
	if _, err := buildEngine("", "", "bogus", 1, 1); err == nil {
		t.Error("unknown dataset should fail")
	}
}

func TestParseSlice(t *testing.T) {
	t.Parallel()
	good := []struct {
		in         string
		idx, parts int
	}{
		{"0/1", 0, 1},
		{"0/4", 0, 4},
		{"3/4", 3, 4},
		{" 1 / 2 ", 1, 2},
	}
	for _, tc := range good {
		idx, parts, err := parseSlice(tc.in)
		if err != nil || idx != tc.idx || parts != tc.parts {
			t.Errorf("parseSlice(%q) = (%d, %d, %v), want (%d, %d, nil)",
				tc.in, idx, parts, err, tc.idx, tc.parts)
		}
	}
	for _, in := range []string{"", "1", "2/2", "4/2", "-1/2", "0/0", "a/b", "1/2/3"} {
		if _, _, err := parseSlice(in); err == nil {
			t.Errorf("parseSlice(%q) accepted, want error", in)
		}
	}
}

func TestParseShardServers(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name        string
		in          string
		replication int
		want        [][]string
	}{
		{
			"flat-r1", "http://a:1,http://b:1", 1,
			[][]string{{"http://a:1"}, {"http://b:1"}},
		},
		{
			"flat-r2", "http://a:1,http://a:2,http://b:1,http://b:2", 2,
			[][]string{{"http://a:1", "http://a:2"}, {"http://b:1", "http://b:2"}},
		},
		{
			"grouped", "http://a:1,http://a:2;http://b:1", 1,
			[][]string{{"http://a:1", "http://a:2"}, {"http://b:1"}},
		},
		{
			"grouped-whitespace", " http://a:1 , http://a:2 ; http://b:1 ", 2,
			[][]string{{"http://a:1", "http://a:2"}, {"http://b:1"}},
		},
		{
			"single", "http://a:1", 1,
			[][]string{{"http://a:1"}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, err := parseShardServers(tc.in, tc.replication)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}

	bad := []struct {
		in          string
		replication int
	}{
		{"", 1},
		{"   ", 2},
		{"http://a:1,http://b:1,http://c:1", 2}, // 3 URLs not divisible by R=2
		{"http://a:1", 0},                       // replication < 1
		{";;", 1},                               // groups name no servers
	}
	for _, tc := range bad {
		if _, err := parseShardServers(tc.in, tc.replication); err == nil {
			t.Errorf("parseShardServers(%q, %d) accepted, want error", tc.in, tc.replication)
		}
	}
}
