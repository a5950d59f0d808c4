package corpus

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"lotusx/internal/core"
	"lotusx/internal/faults"
	"lotusx/internal/metrics"
	"lotusx/internal/twig"
)

func deltaXML(i int) string {
	return fmt.Sprintf(`<dblp created="2005"><article key="d%d"><author>Delta Author %d</author><title>Delta Title %d</title></article></dblp>`, i, i, i)
}

// searchTitles runs //article/title and returns the hit count.
func searchTitles(t *testing.T, c *Corpus) int {
	t.Helper()
	q, err := twig.Parse("//article/title")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.SearchHits(context.Background(), q, core.SearchOptions{K: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Hits)
}

func TestDeltaShardsCountAndQuery(t *testing.T) {
	c, err := FromDocument("bib", mustDoc(t, "bib", bibXML), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	base := searchTitles(t, c)
	for i := 0; i < 3; i++ {
		if err := c.AddDeltaSplit(fmt.Sprintf("delta%d", i), mustDoc(t, "d", deltaXML(i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.DeltaShards(); n != 3 {
		t.Fatalf("DeltaShards = %d, want 3", n)
	}
	if got := c.Snapshot().Len(); got != 5 {
		t.Fatalf("snapshot has %d shards, want 5 (2 base + 3 delta)", got)
	}
	// Deltas are queried like any shard.
	if got := searchTitles(t, c); got != base+3 {
		t.Fatalf("with deltas: %d hits, want %d", got, base+3)
	}
	// Base-shard adds do not count as deltas.
	if err := c.AddSplit("plain", mustDoc(t, "p", deltaXML(99)), 1); err != nil {
		t.Fatal(err)
	}
	if n := c.DeltaShards(); n != 3 {
		t.Fatalf("DeltaShards after base add = %d, want 3", n)
	}
}

func TestCompactDeltasMerges(t *testing.T) {
	c, err := FromDocument("bib", mustDoc(t, "bib", bibXML), 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.AddDeltaSplit(fmt.Sprintf("delta%d", i), mustDoc(t, "d", deltaXML(i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	before := searchTitles(t, c)
	seqBefore := c.Seq()

	res, err := c.CompactDeltas(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 3 || len(res.Into) != 1 {
		t.Fatalf("compaction: %+v", res)
	}
	if !strings.HasPrefix(res.Into[0], "compacted/") {
		t.Fatalf("compacted shard name %q", res.Into[0])
	}
	if res.Seq != seqBefore+1 {
		t.Fatalf("compaction published seq %d after %d", res.Seq, seqBefore)
	}
	if n := c.DeltaShards(); n != 0 {
		t.Fatalf("%d delta shards survived compaction", n)
	}
	if got := c.Snapshot().Len(); got != 3 {
		t.Fatalf("snapshot has %d shards, want 3 (2 base + 1 compacted)", got)
	}
	// No answers lost or duplicated.
	if got := searchTitles(t, c); got != before {
		t.Fatalf("after compaction: %d hits, want %d", got, before)
	}

	// Nothing left to do: (nil, nil).
	res, err = c.CompactDeltas(context.Background(), 0)
	if err != nil || res != nil {
		t.Fatalf("noop compaction: res=%+v err=%v", res, err)
	}
}

func TestCompactDeltasMaxBatch(t *testing.T) {
	c, err := FromDocument("bib", mustDoc(t, "bib", bibXML), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.AddDeltaSplit(fmt.Sprintf("delta%d", i), mustDoc(t, "d", deltaXML(i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.CompactDeltas(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 2 {
		t.Fatalf("maxBatch=2 merged %d", res.Merged)
	}
	if n := c.DeltaShards(); n != 2 {
		t.Fatalf("%d deltas left, want 2", n)
	}
}

// TestShardLatencyFollowsSnapshot: per-shard latency is reported for the
// live snapshot's shards only, so ingest and compaction cannot grow the
// series without bound — compacted-away deltas take their series with them.
func TestShardLatencyFollowsSnapshot(t *testing.T) {
	reg := metrics.New()
	c, err := FromDocument("bib", mustDoc(t, "bib", bibXML), 2, Config{Metrics: reg.Corpus("bib")})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		var records strings.Builder
		records.WriteString("<dblp>")
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&records, "<article><title>Delta %d.%d</title></article>", round, i)
		}
		records.WriteString("</dblp>")
		if err := c.AddDeltaSplit(fmt.Sprintf("delta%d", round), mustDoc(t, "d", records.String()), 4); err != nil {
			t.Fatal(err)
		}
		searchTitles(t, c)
		if _, err := c.CompactDeltas(context.Background(), 0); err != nil {
			t.Fatal(err)
		}
	}
	searchTitles(t, c)
	var got []string
	for name := range reg.Snapshot().Corpora["bib"].ShardLatency {
		got = append(got, name)
	}
	sort.Strings(got)
	if want := c.Snapshot().Names(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("shardLatency reports %d shards %v, want the snapshot's %d: %v", len(got), got, len(want), want)
	}
}

// TestCompactDeltasHeterogeneousRoots: deltas with different root tags
// compact into one base shard per root shape.
func TestCompactDeltasHeterogeneousRoots(t *testing.T) {
	c := New("mixed", Config{})
	if err := c.AddDeltaSplit("d1", mustDoc(t, "d1", deltaXML(1)), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDeltaSplit("d2", mustDoc(t, "d2",
		`<library><book><title>Other Root</title></book></library>`), 1); err != nil {
		t.Fatal(err)
	}
	res, err := c.CompactDeltas(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Merged != 2 || len(res.Into) != 2 {
		t.Fatalf("heterogeneous compaction: %+v", res)
	}
	// Both shapes still answer.
	for _, qs := range []string{"//article/title", "//book/title"} {
		q, err := twig.Parse(qs)
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.SearchHits(context.Background(), q, core.SearchOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Hits) != 1 {
			t.Fatalf("%s after compaction: %d hits, want 1", qs, len(r.Hits))
		}
	}
}

// TestCompactDeltasPreservesAttributesAndValues: the merged root keeps the
// first delta's root attributes.
func TestCompactDeltasPreservesAttributes(t *testing.T) {
	c := New("attrs", Config{})
	if err := c.AddDeltaSplit("d1", mustDoc(t, "d1", deltaXML(1)), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CompactDeltas(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	q, err := twig.Parse("//dblp[@created]")
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.SearchHits(context.Background(), q, core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hits) != 1 {
		t.Fatalf("root attribute lost in compaction: %d hits", len(r.Hits))
	}
}

// TestCompactDeltasFaultSite: the corpus/compact injection fails the round
// deterministically and leaves the shard set untouched.
func TestCompactDeltasFaultSite(t *testing.T) {
	freg := faults.New()
	freg.Enable(faults.Injection{Site: FaultCompact, Keys: []string{"bib"}, Err: errors.New("injected")})
	c, err := FromDocument("bib", mustDoc(t, "bib", bibXML), 1, Config{Faults: freg})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDeltaSplit("d1", mustDoc(t, "d", deltaXML(1)), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CompactDeltas(context.Background(), 0); err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("compaction under injection: err=%v", err)
	}
	if n := c.DeltaShards(); n != 1 {
		t.Fatalf("failed compaction mutated the shard set: %d deltas", n)
	}
}

// TestDeltaFlagPersists: the delta marker survives a persist + Open cycle,
// so a restart resumes with the same compaction backlog.
func TestDeltaFlagPersists(t *testing.T) {
	dir := t.TempDir()
	c := New("bib", Config{Dir: dir})
	if err := c.SetSplit("bib", mustDoc(t, "bib", bibXML), 2); err != nil {
		t.Fatal(err)
	}
	if err := c.AddDeltaSplit("d1", mustDoc(t, "d", deltaXML(1)), 1); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if n := re.DeltaShards(); n != 1 {
		t.Fatalf("reopened corpus has %d delta shards, want 1", n)
	}
	// And the reopened corpus can compact them.
	res, err := re.CompactDeltas(context.Background(), 0)
	if err != nil || res.Merged != 1 {
		t.Fatalf("compaction after reopen: res=%+v err=%v", res, err)
	}
	// A second reopen sees the compacted state.
	re2, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if re2.DeltaShards() != 0 || re2.Snapshot().Len() != 3 {
		t.Fatalf("after compaction+reopen: %d deltas over %d shards", re2.DeltaShards(), re2.Snapshot().Len())
	}
}

// TestRepublishPreservesDeltaFlag: publishes that leave a delta shard in
// place — adding and removing other shards — keep its delta marker.
func TestRepublishPreservesDeltaFlag(t *testing.T) {
	c, err := FromDocument("bib", mustDoc(t, "bib", bibXML), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDeltaSplit("d1", mustDoc(t, "d", deltaXML(1)), 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("other", mustDoc(t, "other", bibXML)); err != nil {
		t.Fatal(err)
	}
	if n := c.DeltaShards(); n != 1 {
		t.Fatalf("adding a shard dropped the delta flag: %d deltas", n)
	}
	if err := c.Remove("other"); err != nil {
		t.Fatal(err)
	}
	if n := c.DeltaShards(); n != 1 {
		t.Fatalf("removing a shard dropped the delta flag: %d deltas", n)
	}
}
