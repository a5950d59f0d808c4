package corpus

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lotusx/internal/core"
	"lotusx/internal/faults"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// TestFanoutCancellationClosesSpans injects a failure into one shard of a
// live failfast fan-out while a sibling shard is provably mid-evaluation,
// then checks the trace contract: the failing shard's error cancels the
// sibling, every span created by the fan-out is closed (no leaked "running"
// spans in the finished trace), and the fanout span records the cancellation
// cause.
func TestFanoutCancellationClosesSpans(t *testing.T) {
	// Not parallel: the fan-out's width is GOMAXPROCS, and both shards must
	// evaluate concurrently — the barrier below would deadlock at width 1.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	d := mustDoc(t, "bib", bibXML)
	reg := faults.New()
	c, err := FromDocument("bib", d, 2, Config{
		Faults: reg,
		Tuning: Tuning{Policy: PolicyFailFast},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Len() != 2 {
		t.Fatalf("want 2 shards, got %v", c.Snapshot().Names())
	}

	injected := errors.New("injected shard failure")
	var startOnce sync.Once
	started := make(chan struct{})
	reg.Enable(faults.Injection{Site: FaultShardSearch, Hook: func(ctx context.Context, shard string) error {
		switch shard {
		case "bib/000":
			// Prove this shard was mid-evaluation when the sibling failed:
			// release the sibling, then block until cancellation reaches us.
			startOnce.Do(func() { close(started) })
			<-ctx.Done()
			return ctx.Err()
		case "bib/001":
			<-started
			return injected
		}
		return nil
	}})

	q, err := twig.Parse("//article[author contains \"Lu\"]/title")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("query")
	ctx := obs.ContextWith(context.Background(), tr.Root())

	_, err = c.SearchHits(ctx, q, core.SearchOptions{K: 5})
	if err == nil || !strings.Contains(err.Error(), "injected shard failure") {
		t.Fatalf("SearchHits error = %v, want the injected shard failure", err)
	}
	tr.Finish()

	var fanout *obs.Span
	shardSpans := map[string]*obs.Span{}
	tr.Each(func(s *obs.Span) {
		switch s.Name() {
		case "fanout":
			fanout = s
		case "shard":
			shardSpans[s.Attr("shard")] = s
		}
		if !s.Ended() {
			t.Errorf("span %q leaked unfinished after cancellation", s.Name())
		}
	})
	if fanout == nil {
		t.Fatal("no fanout span recorded")
	}
	if cause := fanout.Attr("cancelCause"); !strings.Contains(cause, "injected shard failure") {
		t.Fatalf("fanout cancelCause = %q, want the injected failure", cause)
	}
	if len(shardSpans) != 2 {
		t.Fatalf("want spans for both shards, got %v", shardSpans)
	}
	// The cancelled sibling recorded why it stopped.
	if e := shardSpans["bib/000"].Attr("error"); !strings.Contains(e, "canceled") {
		t.Fatalf("cancelled shard error attr = %q, want context canceled", e)
	}
	if e := shardSpans["bib/001"].Attr("error"); !strings.Contains(e, "injected") {
		t.Fatalf("failing shard error attr = %q", e)
	}
}

// TestSearchHitsTraceShape runs a healthy sharded query under a trace and
// checks the span tree the serving layer returns to ?debug=trace callers:
// one fanout span with one child per shard, a merge span, and per-shard
// join/rank spans nested beneath the shard spans.
func TestSearchHitsTraceShape(t *testing.T) {
	t.Parallel()
	d := mustDoc(t, "bib", bibXML)
	c, err := FromDocument("bib", d, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := twig.Parse("//article/title")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New("query")
	ctx := obs.ContextWith(context.Background(), tr.Root())
	if _, err := c.SearchHits(ctx, q, core.SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	counts := map[string]int{}
	tr.Each(func(s *obs.Span) {
		name := s.Name()
		if strings.HasPrefix(name, "join:") {
			name = "join"
		}
		counts[name]++
		if !s.Ended() {
			t.Errorf("span %q not ended", s.Name())
		}
	})
	if counts["fanout"] != 1 || counts["merge"] != 1 {
		t.Fatalf("want one fanout and one merge span, got %v", counts)
	}
	if counts["shard"] != 2 {
		t.Fatalf("want one span per shard, got %v", counts)
	}
	if counts["join"] < 2 || counts["rank"] < 2 {
		t.Fatalf("want per-shard join and rank spans, got %v", counts)
	}
	// Durations sum sensibly: the root covers the fanout, the fanout covers
	// each shard.
	var fanout *obs.Span
	tr.Each(func(s *obs.Span) {
		if s.Name() == "fanout" {
			fanout = s
		}
	})
	if fanout.Duration() > tr.Root().Duration() {
		t.Fatalf("fanout %v exceeds root %v", fanout.Duration(), tr.Root().Duration())
	}
	tr.Each(func(s *obs.Span) {
		if s.Name() == "shard" && s.Duration() > fanout.Duration() {
			t.Fatalf("shard span %v exceeds fanout %v", s.Duration(), fanout.Duration())
		}
	})
}

// TestCorpusReady exercises the readiness contract: ready once shards are
// loaded, not ready while a publish (ingest/remove) is in flight, not ready
// when empty.
func TestCorpusReady(t *testing.T) {
	t.Parallel()
	empty := New("e", Config{})
	if err := empty.Ready(); err == nil || !strings.Contains(err.Error(), "no shards") {
		t.Fatalf("empty corpus Ready() = %v, want no-shards error", err)
	}

	d := mustDoc(t, "bib", bibXML)
	c, err := FromDocument("bib", d, 2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ready(); err != nil {
		t.Fatalf("loaded corpus not ready: %v", err)
	}

	// Simulate a mutation in flight the way publish does (the counter is
	// incremented for the whole rebuild+persist+swap window).
	c.mutating.Add(1)
	if err := c.Ready(); err == nil || !strings.Contains(err.Error(), "mutation") {
		t.Fatalf("mid-mutation Ready() = %v, want mutation error", err)
	}
	c.mutating.Add(-1)
	if err := c.Ready(); err != nil {
		t.Fatalf("Ready did not flip back: %v", err)
	}

	// A real publish leaves the corpus ready again afterwards.
	if err := c.AddSplit("bib", d, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Ready(); err != nil {
		t.Fatalf("post-publish Ready() = %v", err)
	}
}
