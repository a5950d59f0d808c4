package corpus

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"lotusx/internal/core"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/metrics"
	"lotusx/internal/twig"
)

const bibXML = `<dblp created="2005">
  <article key="a1">
    <author>Jiaheng Lu</author>
    <title>Holistic Twig Joins</title>
    <year>2005</year>
  </article>
  <article key="a2">
    <author>Chunbin Lin</author>
    <author>Jiaheng Lu</author>
    <title>LotusX Demo</title>
    <year>2012</year>
  </article>
  <article key="a3">
    <author>Wei Wang</author>
    <title>Structural Joins</title>
    <year>2002</year>
  </article>
  <inproceedings key="c1">
    <author>Jiaheng Lu</author>
    <title>TJFast</title>
    <year>2005</year>
  </inproceedings>
</dblp>`

func mustDoc(t testing.TB, name, xml string) *doc.Document {
	t.Helper()
	d, err := doc.FromReader(name, strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hitKeys projects hits to (path, snippet) pairs — node IDs and scores are
// shard-local (per-shard idf differs from whole-document idf), so
// equivalence across shardings is set equality on rendered content.
func hitKeys(hits []core.Hit) []string {
	keys := make([]string, len(hits))
	for i, h := range hits {
		keys[i] = h.Path + "\x00" + h.Snippet
	}
	sort.Strings(keys)
	return keys
}

func TestSplitDocumentRoundTrip(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	for _, parts := range []int{1, 2, 3, 4} {
		docs, err := SplitDocument(d, parts)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if len(docs) != parts {
			t.Fatalf("parts=%d: got %d documents", parts, len(docs))
		}
		// Every record must land in exactly one part; root attributes
		// replicate.
		records := 0
		for _, sd := range docs {
			root := sd.Root()
			if sd.TagName(root) != "dblp" {
				t.Fatalf("parts=%d: root tag %q", parts, sd.TagName(root))
			}
			attrs := 0
			for c := sd.FirstChild(root); c != doc.None; c = sd.NextSibling(c) {
				if sd.Kind(c) == doc.Attribute {
					attrs++
				} else {
					records++
				}
			}
			if parts > 1 && attrs != 1 {
				t.Fatalf("parts=%d: root attributes not replicated (got %d)", parts, attrs)
			}
		}
		if records != 4 {
			t.Fatalf("parts=%d: %d records across parts, want 4", parts, records)
		}
	}
}

// TestSplitDescendsContainers: a root with fewer children than parts splits
// at the next level down, replicating container elements around their
// records.
func TestSplitDescendsContainers(t *testing.T) {
	d := mustDoc(t, "site", `<site>
  <people kind="a"><p>1</p><p>2</p><p>3</p><p>4</p></people>
  <items><i>5</i><i>6</i><i>7</i><i>8</i></items>
</site>`)
	docs, err := SplitDocument(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 4 {
		t.Fatalf("got %d documents, want 4", len(docs))
	}
	people, items := 0, 0
	for _, sd := range docs {
		if sd.TagName(sd.Root()) != "site" {
			t.Fatalf("root tag %q", sd.TagName(sd.Root()))
		}
		for n := doc.NodeID(0); int(n) < sd.Len(); n++ {
			switch sd.TagName(n) {
			case "p":
				people++
			case "i":
				items++
			}
		}
	}
	if people != 4 || items != 4 {
		t.Fatalf("records across parts: %d people, %d items; want 4 and 4", people, items)
	}
}

func TestSplitSingleRecordUnsplit(t *testing.T) {
	d := mustDoc(t, "one", "<root><only><x>1</x></only></root>")
	docs, err := SplitDocument(d, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || docs[0] != d {
		t.Fatalf("single-record document must come back unsplit, got %d docs", len(docs))
	}
}

// TestMultiShardMatchesSingleShard is the acceptance check: a query over a
// corpus split N ways returns the same answer set as over the whole
// document, for several N and several queries.
func TestMultiShardMatchesSingleShard(t *testing.T) {
	d, err := dataset.Build(dataset.XMark, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	single := core.FromDocument(d)

	queries := []string{
		"//item//name",
		"//person[name]//emailaddress",
		"//open_auction[//bidder]//increase",
	}
	for _, parts := range []int{2, 3, 5} {
		c, err := FromDocument("xmark", d, parts, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot().Len(); got != parts {
			t.Fatalf("parts=%d: snapshot has %d shards", parts, got)
		}
		for _, qs := range queries {
			q, err := twig.Parse(qs)
			if err != nil {
				t.Fatal(err)
			}
			// K large enough to fetch every answer, rewriting off so the
			// answer set is exact-match only and sharding-independent.
			opts := core.SearchOptions{K: 100000, SnippetMax: 200}
			want, err := single.SearchHits(context.Background(), q.Clone(), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.SearchHits(context.Background(), q.Clone(), opts)
			if err != nil {
				t.Fatalf("parts=%d %s: %v", parts, qs, err)
			}
			wk, gk := hitKeys(want.Hits), hitKeys(got.Hits)
			if len(wk) == 0 {
				t.Fatalf("%s: query matched nothing — test is vacuous", qs)
			}
			if len(wk) != len(gk) {
				t.Fatalf("parts=%d %s: single=%d hits, corpus=%d hits", parts, qs, len(wk), len(gk))
			}
			for i := range wk {
				if wk[i] != gk[i] {
					t.Fatalf("parts=%d %s: hit sets differ at %d:\n  single: %q\n  corpus: %q", parts, qs, i, wk[i], gk[i])
				}
			}
			if got.Shards != parts {
				t.Errorf("parts=%d: HitResult.Shards = %d", parts, got.Shards)
			}
		}
	}
}

func TestSearchHitsGlobalOrderAndPaging(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	c, err := FromDocument("bib", d, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := twig.Parse("//article/title")
	if err != nil {
		t.Fatal(err)
	}

	all, err := c.SearchHits(context.Background(), q.Clone(), core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Hits) != 3 || all.Exact != 3 {
		t.Fatalf("got %d hits (%d exact), want 3 exact", len(all.Hits), all.Exact)
	}
	// Scores must be globally non-increasing after the merge.
	for i := 1; i < len(all.Hits); i++ {
		if all.Hits[i].Score > all.Hits[i-1].Score {
			t.Fatalf("merged hits out of order at %d: %v > %v", i, all.Hits[i].Score, all.Hits[i-1].Score)
		}
	}

	// Page 2 of size 1 must equal the middle hit of the full run.
	page, err := c.SearchHits(context.Background(), q.Clone(), core.SearchOptions{K: 1, Offset: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Hits) != 1 {
		t.Fatalf("page: got %d hits", len(page.Hits))
	}
	if page.Hits[0].Path != all.Hits[1].Path || page.Hits[0].Snippet != all.Hits[1].Snippet {
		t.Fatalf("page hit %q != full-run hit %q", page.Hits[0].Path, all.Hits[1].Path)
	}
	if page.Total != 2 { // Offset+K materialized ⇒ more pages may exist
		t.Fatalf("page.Total = %d, want 2", page.Total)
	}
}

func TestCorpusAddReplaceRemove(t *testing.T) {
	c := New("lib", Config{})
	if _, err := c.SearchHits(context.Background(), nil, core.SearchOptions{}); err == nil {
		t.Fatal("empty corpus should refuse to search")
	}
	if err := c.Add("bib", mustDoc(t, "bib", bibXML)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("tiny", mustDoc(t, "tiny", "<dblp><article><title>Extra</title></article></dblp>")); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().Names(); len(got) != 2 || got[0] != "bib" || got[1] != "tiny" {
		t.Fatalf("names = %v", got)
	}

	q, _ := twig.Parse("//article/title")
	res, err := c.SearchHits(context.Background(), q.Clone(), core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 4 {
		t.Fatalf("got %d hits across shards, want 4", len(res.Hits))
	}
	shardsSeen := map[string]bool{}
	for _, h := range res.Hits {
		shardsSeen[h.Shard] = true
	}
	if !shardsSeen["bib"] || !shardsSeen["tiny"] {
		t.Fatalf("hits not attributed to both shards: %v", shardsSeen)
	}

	// Re-adding a shard under its name replaces it in one publish.
	seqBefore := c.Seq()
	if err := c.Add("tiny", mustDoc(t, "tiny", "<dblp><article><title>Extra</title></article></dblp>")); err != nil {
		t.Fatal(err)
	}
	if c.Seq() != seqBefore+1 || c.Snapshot().Len() != 2 {
		t.Fatalf("replacing a shard: seq %d -> %d, %d shards, want one publish over 2", seqBefore, c.Seq(), c.Snapshot().Len())
	}

	if err := c.Remove("tiny"); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("tiny"); err == nil {
		t.Fatal("double remove should error")
	}
	res, err = c.SearchHits(context.Background(), q.Clone(), core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 3 {
		t.Fatalf("after remove: %d hits, want 3", len(res.Hits))
	}

	// Removing a split group by prefix drops all its shards.
	if err := c.AddSplit("big", mustDoc(t, "big", bibXML), 2); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().Len(); got != 3 {
		t.Fatalf("after AddSplit: %d shards", got)
	}
	if err := c.Remove("big"); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().Names(); len(got) != 1 || got[0] != "bib" {
		t.Fatalf("after group remove: %v", got)
	}
}

// TestReingestReplacesSplitGroup: re-ingesting a shard name with a
// different split factor must replace the old shards in both directions —
// group → single and single → group — never leaving both generations
// answering (which would return every record twice).
func TestReingestReplacesSplitGroup(t *testing.T) {
	q, _ := twig.Parse("//article/title")
	countHits := func(t *testing.T, c *Corpus) int {
		t.Helper()
		res, err := c.SearchHits(context.Background(), q.Clone(), core.SearchOptions{K: 100})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Hits)
	}

	// Group → single: the unsplit re-ingest path must drop the old group.
	c := New("lib", Config{})
	if err := c.AddSplit("s", mustDoc(t, "bib", bibXML), 4); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().Len(); got != 4 {
		t.Fatalf("after split ingest: %d shards, want 4", got)
	}
	if err := c.AddSplit("s", mustDoc(t, "bib", bibXML), 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().Names(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("after unsplit re-ingest: shards %v, want [s]", got)
	}
	if got := countHits(t, c); got != 3 {
		t.Fatalf("after unsplit re-ingest: %d hits, want 3 (old group shards still answering?)", got)
	}

	// Add over a group must replace it too.
	c2 := New("lib", Config{})
	if err := c2.AddSplit("s", mustDoc(t, "bib", bibXML), 4); err != nil {
		t.Fatal(err)
	}
	if err := c2.Add("s", mustDoc(t, "bib", bibXML)); err != nil {
		t.Fatal(err)
	}
	if got := c2.Snapshot().Names(); len(got) != 1 || got[0] != "s" {
		t.Fatalf("Add over split group: shards %v, want [s]", got)
	}

	// And single → group keeps working (the original multi-part path).
	if err := c2.AddSplit("s", mustDoc(t, "bib", bibXML), 2); err != nil {
		t.Fatal(err)
	}
	if got := c2.Snapshot().Len(); got != 2 {
		t.Fatalf("after re-split: %d shards, want 2", got)
	}
	if got := countHits(t, c2); got != 3 {
		t.Fatalf("after re-split: %d hits, want 3", got)
	}
}

// TestSetSplitReplacesEverything: SetSplit swaps in a whole new shard set,
// dropping shards under every previous name, with the sequence continuing.
func TestSetSplitReplacesEverything(t *testing.T) {
	c := New("lib", Config{})
	if err := c.Add("a", mustDoc(t, "a", bibXML)); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("b", mustDoc(t, "b", "<dblp><article><title>Extra</title></article></dblp>")); err != nil {
		t.Fatal(err)
	}
	seq := c.Seq()
	if err := c.SetSplit("c", mustDoc(t, "c", bibXML), 2); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().Names(); len(got) != 2 || got[0] != "c/000" || got[1] != "c/001" {
		t.Fatalf("after SetSplit: shards %v, want [c/000 c/001]", got)
	}
	if c.Seq() != seq+1 {
		t.Fatalf("SetSplit seq %d, want %d", c.Seq(), seq+1)
	}
	if err := c.SetSplit("", nil, 1); err == nil {
		t.Fatal("SetSplit with an empty name should error")
	}
}

// TestCompletionMergeGlobalTopK: the merged top k must reflect corpus-wide
// counts even when the global winner is not some shard's local top k — the
// per-shard ask is widened to k×shards before the merge cuts back.
func TestCompletionMergeGlobalTopK(t *testing.T) {
	c := New("lib", Config{})
	// Shard 1 top-1 is x (3 > 2); shard 2 top-1 is y (2 > 1). Globally
	// y=4 beats x=3, so a merge of per-shard top-1 lists would wrongly
	// answer x.
	if err := c.Add("s1", mustDoc(t, "s1", "<r><x/><x/><x/><y/><y/></r>")); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("s2", mustDoc(t, "s2", "<r><y/><y/><z/></r>")); err != nil {
		t.Fatal(err)
	}
	q, err := twig.Parse("//r")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.CompleteTags(context.Background(), q, q.Root.ID, twig.Child, "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Text != "y" || got[0].Count != 4 {
		t.Fatalf("global top-1 = %+v, want y with count 4", got)
	}
}

func TestMergeAskK(t *testing.T) {
	for _, tc := range []struct{ k, shards, want int }{
		{10, 1, 10},
		{10, 4, 40},
		{0, 4, 0},
		{mergeAskKCap, 1024, mergeAskKCap},
		{1 << 62, 4, mergeAskKCap}, // multiplication overflow
	} {
		if got := mergeAskK(tc.k, tc.shards); got != tc.want {
			t.Errorf("mergeAskK(%d, %d) = %d, want %d", tc.k, tc.shards, got, tc.want)
		}
	}
}

func TestCorpusCompletionMergesWeights(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	single := core.FromDocument(d)
	c, err := FromDocument("bib", d, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Root-level tag completion: counts must sum to the whole-document
	// counts whatever the sharding.
	want, err := single.CompleteTags(context.Background(), nil, -1, twig.Descendant, "a", 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.CompleteTags(context.Background(), nil, -1, twig.Descendant, "a", 10)
	if err != nil {
		t.Fatal(err)
	}
	wm := map[string]int64{}
	for _, cand := range want {
		wm[cand.Text] = cand.Count
	}
	gm := map[string]int64{}
	for _, cand := range got {
		gm[cand.Text] = cand.Count
	}
	if len(wm) == 0 {
		t.Fatal("no candidates — test is vacuous")
	}
	if fmt.Sprint(wm) != fmt.Sprint(gm) {
		t.Fatalf("candidates differ:\n  single: %v\n  corpus: %v", wm, gm)
	}

	// Position-aware value completion under //article/author.
	q, _ := twig.Parse("//article/author")
	focus := q.OutputNode().ID
	wantV, err := single.CompleteValues(context.Background(), q.Clone(), focus, "jia", 10)
	if err != nil {
		t.Fatal(err)
	}
	gotV, err := c.CompleteValues(context.Background(), q.Clone(), focus, "jia", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantV) == 0 || len(gotV) != len(wantV) {
		t.Fatalf("value candidates: single=%v corpus=%v", wantV, gotV)
	}
	for i := range wantV {
		if gotV[i].Text != wantV[i].Text || gotV[i].Count != wantV[i].Count {
			t.Fatalf("value candidate %d: single=%v corpus=%v", i, wantV[i], gotV[i])
		}
	}

	// Explain merges occurrences by path.
	occs, err := c.ExplainTags(context.Background(), nil, -1, twig.Descendant, "author", 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range occs {
		if o.Path == "/dblp/article/author" && o.Count == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("merged occurrences missing /dblp/article/author×4: %v", occs)
	}
}

func TestCorpusInfoAggregates(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	c, err := FromDocument("bib", d, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	info := c.Info()
	if info.Kind != "corpus" || info.Shards != 2 {
		t.Fatalf("info = %+v", info)
	}
	single := core.FromDocument(d).Info()
	// The extra shard replicates the root element and its one attribute.
	if info.Nodes != single.Nodes+2 {
		t.Errorf("nodes = %d, single+2 = %d", info.Nodes, single.Nodes+2)
	}
	if info.Tags != single.Tags {
		t.Errorf("tags = %d, want %d", info.Tags, single.Tags)
	}
	if len(c.Engines()) != 2 {
		t.Errorf("Engines() = %d entries", len(c.Engines()))
	}
}

func TestCorpusPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	c := New("lib", Config{Dir: dir, Metrics: reg.Corpus("lib")})
	if err := c.AddSplit("bib", mustDoc(t, "bib", bibXML), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("tiny", mustDoc(t, "tiny", "<dblp><article><title>Extra</title></article></dblp>")); err != nil {
		t.Fatal(err)
	}
	if met := reg.Snapshot().Corpora["lib"]; met.Shards != 3 || met.Swaps != 2 {
		t.Fatalf("metrics: shards=%d swaps=%d", met.Shards, met.Swaps)
	}
	// Every shard file is an index file of version 3 whose whole payload is
	// the shard's document.
	for _, sh := range c.Snapshot().shards {
		data, err := os.ReadFile(filepath.Join(dir, sh.file))
		if err != nil {
			t.Fatal(err)
		}
		var d bytes.Buffer
		if err := sh.engine.Document().Save(&d); err != nil {
			t.Fatal(err)
		}
		if len(data) < 20 || string(data[:4]) != "LTXI" || binary.LittleEndian.Uint32(data[4:8]) != 3 || !bytes.Equal(data[20:], d.Bytes()) {
			t.Errorf("shard %s: file %s is not a version-3 index file of its document", sh.name, sh.file)
		}
	}

	// Reopen from disk and compare search results: as written, then as a
	// build with index compression left the same corpus ("compressed":
	// true in the manifest, version-2 shard files).
	q, _ := twig.Parse("//article/title")
	want, err := c.SearchHits(context.Background(), q.Clone(), core.SearchOptions{K: 100})
	if err != nil {
		t.Fatal(err)
	}
	for _, compressed := range []bool{false, true} {
		if compressed {
			rewriteAsCompressed(t, dir)
		}
		re, err := Open(dir, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if re.Name() != "lib" || re.Snapshot().Len() != 3 || re.Seq() != c.Seq() || re.Degraded() != "" {
			t.Fatalf("reopened (compressed=%v): name=%s shards=%d seq=%d degraded=%q",
				compressed, re.Name(), re.Snapshot().Len(), re.Seq(), re.Degraded())
		}
		got, err := re.SearchHits(context.Background(), q.Clone(), core.SearchOptions{K: 100})
		if err != nil {
			t.Fatal(err)
		}
		if wk, gk := hitKeys(want.Hits), hitKeys(got.Hits); len(wk) == 0 || !slices.Equal(wk, gk) {
			t.Fatalf("reopened corpus (compressed=%v): %v, want %v", compressed, gk, wk)
		}
	}

	// Remove publishes a new manifest and garbage-collects shard files.
	if err := c.Remove("bib"); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	shardFiles := 0
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), "shard-") {
			shardFiles++
		}
	}
	if shardFiles != 1 {
		t.Fatalf("after remove: %d shard files on disk, want 1", shardFiles)
	}
}

func TestOpenRejectsCorruptShard(t *testing.T) {
	dir := t.TempDir()
	c := New("lib", Config{Dir: dir})
	if err := c.Add("bib", mustDoc(t, "bib", bibXML)); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, m.Shards[0].File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Config{})
	if err == nil {
		t.Fatal("Open of corrupt shard must fail")
	}
	if !errors.Is(err, index.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt in chain", err)
	}
	if !strings.Contains(err.Error(), m.Shards[0].File) {
		t.Fatalf("error does not name the shard file: %v", err)
	}
}

func TestSearchHitsCancellation(t *testing.T) {
	d, err := dataset.Build(dataset.XMark, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := FromDocument("xmark", d, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q, _ := twig.Parse("//item//name")
	if _, err := c.SearchHits(ctx, q, core.SearchOptions{K: 100}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
