package corpus

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lotusx/internal/core"
	"lotusx/internal/metrics"
	"lotusx/internal/twig"
)

// repetitiveXML emits n copies of a few fixed record templates — repeated
// subtrees by construction, so every shard of the split clears the
// compression heuristic's pay-for-itself bar.
func repetitiveXML(n int) string {
	records := []string{
		`<article key="a1"><author>Jiaheng Lu</author><author>Ting Chen</author><title>Holistic Twig Joins</title><year>2005</year><pages>310</pages><publisher>VLDB</publisher></article>`,
		`<article key="a2"><author>Chunbin Lin</author><author>Jiaheng Lu</author><title>LotusX Demo</title><year>2012</year><pages>1515</pages><publisher>ICDE</publisher></article>`,
		`<book key="b1"><author>Tok Wang Ling</author><author>Ting Chen</author><title>XML Databases</title><year>2008</year><publisher>Springer</publisher><isbn>978</isbn></book>`,
	}
	var b strings.Builder
	b.WriteString("<dblp>")
	for i := 0; i < n; i++ {
		b.WriteString(records[i%len(records)])
	}
	b.WriteString("</dblp>")
	return b.String()
}

// TestCorpusCompressedEndToEnd drives the DAG-compressed substrate through
// the full corpus lifecycle: Config.Compress builds compressed shards, the
// manifest marks them, queries match a raw-substrate corpus over the same
// document, reopening from disk restores the compressed substrate (the shard
// files are self-describing), and the metrics carry the size accounting.
func TestCorpusCompressedEndToEnd(t *testing.T) {
	xml := repetitiveXML(1200)
	queries := []string{
		`//article/title`,
		`//article[author][year]/title`,
		`//book[publisher]/author`,
		`//dblp//author`,
	}

	dir := t.TempDir()
	reg := metrics.New()
	comp := New("lib", Config{Dir: dir, Compress: true, Metrics: reg.Corpus("lib")})
	if err := comp.AddSplit("bib", mustDoc(t, "bib", xml), 3); err != nil {
		t.Fatal(err)
	}
	raw := New("lib", Config{})
	if err := raw.AddSplit("bib", mustDoc(t, "bib", xml), 3); err != nil {
		t.Fatal(err)
	}

	assertCompressed := func(c *Corpus, label string) {
		t.Helper()
		for _, ne := range c.Engines() {
			if !ne.Engine.Compressed() {
				t.Fatalf("%s: shard %s not compressed", label, ne.Name)
			}
		}
	}
	assertCompressed(comp, "built corpus")
	for _, ne := range raw.Engines() {
		if ne.Engine.Compressed() {
			t.Fatalf("raw corpus: shard %s unexpectedly compressed", ne.Name)
		}
	}

	// The manifest flags every compressed shard, so operators can see the
	// substrate without opening shard files.
	m, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 3 {
		t.Fatalf("manifest: %d shards, want 3", len(m.Shards))
	}
	for _, ms := range m.Shards {
		if !ms.Compressed {
			t.Fatalf("manifest: shard %s not marked compressed", ms.Name)
		}
	}

	// The metrics snapshot carries the size accounting the gauges export.
	met := reg.Snapshot().Corpora["lib"]
	if met.ResidentBytes <= 0 {
		t.Fatalf("metrics: residentBytes=%d, want > 0", met.ResidentBytes)
	}
	if met.CompressedShards != 3 {
		t.Fatalf("metrics: compressedShards=%d, want 3", met.CompressedShards)
	}

	search := func(c *Corpus, text string) []string {
		t.Helper()
		q, err := twig.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.SearchHits(context.Background(), q, core.SearchOptions{K: 5000})
		if err != nil {
			t.Fatal(err)
		}
		return hitKeys(res.Hits)
	}
	compare := func(a, b *Corpus, label string) {
		t.Helper()
		for _, text := range queries {
			wk, gk := search(a, text), search(b, text)
			if len(wk) == 0 {
				t.Fatalf("%s: %s returned no hits", label, text)
			}
			if fmt.Sprint(wk) != fmt.Sprint(gk) {
				t.Fatalf("%s: %s differs (%d vs %d hits)", label, text, len(wk), len(gk))
			}
		}
	}
	compare(raw, comp, "compressed vs raw")

	// Reopen from disk: the version-2 shard files are self-describing, so the
	// reloaded corpus runs compressed with no Config.Compress hint, and its
	// answers still match the raw corpus.
	re, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Snapshot().Len() != 3 || re.Seq() != comp.Seq() {
		t.Fatalf("reopened: shards=%d seq=%d", re.Snapshot().Len(), re.Seq())
	}
	assertCompressed(re, "reopened corpus")
	compare(raw, re, "reopened vs raw")
}
