package corpus

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/dataset"
	"lotusx/internal/faults"
	"lotusx/internal/metrics"
	"lotusx/internal/twig"
)

var errInjected = errors.New("injected shard failure")

// degradeCorpus builds a 4-shard XMark corpus with an armed fault registry
// and breakers disabled (so tests isolate the shard policy from the breaker,
// which has its own tests).
func degradeCorpus(t *testing.T, tuning Tuning) (*Corpus, *faults.Registry) {
	t.Helper()
	d, err := dataset.Build(dataset.XMark, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := faults.New()
	if tuning.BreakerThreshold == 0 {
		tuning.BreakerThreshold = -1
	}
	c, err := FromDocument("xmark", d, 4, Config{Faults: reg, Tuning: tuning})
	if err != nil {
		t.Fatal(err)
	}
	return c, reg
}

func mustSearch(t *testing.T, c *Corpus, qs string, opts core.SearchOptions) *core.HitResult {
	t.Helper()
	q, err := twig.Parse(qs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.SearchHits(context.Background(), q, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDegradePartialMatchesSurvivors is the core degraded-merge invariant:
// with one of four shards failing, the answer is exactly the healthy answer
// minus that shard's contribution, flagged partial with the shard named.
func TestDegradePartialMatchesSurvivors(t *testing.T) {
	t.Parallel()
	c, reg := degradeCorpus(t, Tuning{})
	// //name matches in several document sections (items, categories, people),
	// so the document-order split spreads the answers over shards.
	const qs = "//name"
	opts := core.SearchOptions{K: 100000, SnippetMax: 200}

	healthy := mustSearch(t, c, qs, opts)
	if healthy.Partial || len(healthy.FailedShards) != 0 {
		t.Fatalf("healthy run flagged partial: %+v", healthy.FailedShards)
	}

	// Fail a shard contributing some but not all answers, so the degraded
	// run both loses and keeps hits.
	perShard := map[string]int{}
	for _, h := range healthy.Hits {
		perShard[h.Shard]++
	}
	victim := ""
	for shard, n := range perShard {
		if n > 0 && n < len(healthy.Hits) {
			victim = shard
			break
		}
	}
	if victim == "" {
		t.Fatalf("every shard is all-or-nothing for %s: %v", qs, perShard)
	}
	reg.Enable(faults.Injection{Site: FaultShardSearch, Keys: []string{victim}, Err: errInjected})
	got := mustSearch(t, c, qs, opts)
	if !got.Partial {
		t.Fatal("degraded run not flagged partial")
	}
	if len(got.FailedShards) != 1 || got.FailedShards[0] != victim {
		t.Fatalf("FailedShards = %v, want [%s]", got.FailedShards, victim)
	}
	if got.Shards != 4 {
		t.Fatalf("Shards = %d, want 4 (the fan-out width, not the survivors)", got.Shards)
	}

	var want []core.Hit
	for _, h := range healthy.Hits {
		if h.Shard != victim {
			want = append(want, h)
		}
	}
	if len(want) == 0 || len(want) == len(healthy.Hits) {
		t.Fatalf("victim shard contributed %d of %d hits — test is vacuous",
			len(healthy.Hits)-len(want), len(healthy.Hits))
	}
	wk, gk := hitKeys(want), hitKeys(got.Hits)
	if len(wk) != len(gk) {
		t.Fatalf("degraded run: %d hits, want %d (healthy minus victim)", len(gk), len(wk))
	}
	for i := range wk {
		if wk[i] != gk[i] {
			t.Fatalf("hit sets differ at %d:\n  want %q\n  got  %q", i, wk[i], gk[i])
		}
	}
	if got.Total != len(got.Hits) {
		t.Fatalf("Total = %d, want %d (all survivors materialized)", got.Total, len(got.Hits))
	}

	// Disarming the injection restores the full answer on the same corpus.
	reg.Reset()
	again := mustSearch(t, c, qs, opts)
	if again.Partial || len(again.Hits) != len(healthy.Hits) {
		t.Fatalf("after disarm: partial=%v hits=%d, want full %d", again.Partial, len(again.Hits), len(healthy.Hits))
	}
}

// TestDegradeTransparentRetry: a failure that clears on the second attempt
// never surfaces — the answer is whole and unflagged, and the injection
// counter proves the first attempt did fail.
func TestDegradeTransparentRetry(t *testing.T) {
	t.Parallel()
	c, reg := degradeCorpus(t, Tuning{})
	const qs = "//item//name"
	opts := core.SearchOptions{K: 100000, SnippetMax: 200}
	healthy := mustSearch(t, c, qs, opts)

	reg.Enable(faults.Injection{Site: FaultShardSearch, Keys: []string{"xmark/002"}, Err: errInjected, Times: 1})
	got := mustSearch(t, c, qs, opts)
	if n := reg.Fired(FaultShardSearch); n != 1 {
		t.Fatalf("injection fired %d times, want exactly 1", n)
	}
	if got.Partial || len(got.FailedShards) != 0 {
		t.Fatalf("transient failure surfaced: partial=%v failed=%v", got.Partial, got.FailedShards)
	}
	if len(got.Hits) != len(healthy.Hits) {
		t.Fatalf("retry run: %d hits, want %d", len(got.Hits), len(healthy.Hits))
	}
}

// TestDegradePagingInvariants: with one shard down, paging over the degraded
// result obeys the same contract as a healthy one — pages concatenate to the
// one-shot run, Total == Offset+K signals more pages, and the final page
// falls short.
func TestDegradePagingInvariants(t *testing.T) {
	t.Parallel()
	c, reg := degradeCorpus(t, Tuning{})
	reg.Enable(faults.Injection{Site: FaultShardSearch, Keys: []string{"xmark/000"}, Err: errInjected})
	const qs = "//person[name]//emailaddress"
	opts := core.SearchOptions{K: 100000, SnippetMax: 200}
	full := mustSearch(t, c, qs, opts)
	if !full.Partial {
		t.Fatal("want a partial run")
	}
	if len(full.Hits) < 5 {
		t.Fatalf("only %d surviving hits — paging test is vacuous", len(full.Hits))
	}

	const k = 3
	var paged []core.Hit
	for offset := 0; ; offset += k {
		page := mustSearch(t, c, qs, core.SearchOptions{K: k, Offset: offset, SnippetMax: 200})
		if !page.Partial || len(page.FailedShards) != 1 {
			t.Fatalf("offset %d: page lost the partial flag: %+v", offset, page.FailedShards)
		}
		paged = append(paged, page.Hits...)
		if page.Total < offset+k {
			// Contract: a Total short of the cut means the set is exhausted.
			if len(page.Hits) != page.Total-offset {
				t.Fatalf("last page: %d hits, Total %d, offset %d", len(page.Hits), page.Total, offset)
			}
			break
		}
		if page.Total != offset+k {
			t.Fatalf("offset %d: Total = %d, want exactly offset+k = %d mid-set", offset, page.Total, offset+k)
		}
		if len(page.Hits) != k {
			t.Fatalf("offset %d: %d hits, want a full page of %d", offset, len(page.Hits), k)
		}
	}
	if len(paged) != len(full.Hits) {
		t.Fatalf("pages concatenate to %d hits, one-shot run has %d", len(paged), len(full.Hits))
	}
	for i := range paged {
		if paged[i].Path != full.Hits[i].Path || paged[i].Snippet != full.Hits[i].Snippet {
			t.Fatalf("page walk diverges from one-shot run at %d: %q vs %q",
				i, paged[i].Path, full.Hits[i].Path)
		}
	}
}

// TestDegradeExactBeforeRewriteOrdering: the exact-before-rewrite global
// ordering survives losing a shard, and Exact counts the leading exact hits.
func TestDegradeExactBeforeRewriteOrdering(t *testing.T) {
	t.Parallel()
	d := mustDoc(t, "bib", bibXML)
	reg := faults.New()
	c, err := FromDocument("bib", d, 4, Config{Faults: reg, Tuning: Tuning{BreakerThreshold: -1}})
	if err != nil {
		t.Fatal(err)
	}
	// bib/002 holds a3 (year 2002): the surviving shards still contribute the
	// exact answer (a1, year 2005) and at least one relaxed answer (a2).
	reg.Enable(faults.Injection{Site: FaultShardSearch, Keys: []string{"bib/002"}, Err: errInjected})

	q, err := twig.Parse(`//article[year = "2005"]`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.SearchHits(context.Background(), q, core.SearchOptions{K: 50, Rewrite: true, SnippetMax: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("want partial")
	}
	if res.RewritesTried == 0 {
		t.Fatal("no rewrites tried — ordering test is vacuous")
	}
	if res.Exact < 0 || res.Exact > len(res.Hits) {
		t.Fatalf("Exact = %d with %d hits", res.Exact, len(res.Hits))
	}
	for i, h := range res.Hits {
		if i < res.Exact && h.Rewrite != "" {
			t.Fatalf("hit %d inside the exact prefix came from rewrite %q", i, h.Rewrite)
		}
		if i >= res.Exact && h.Rewrite == "" {
			t.Fatalf("exact hit %d ranked below the exact prefix (Exact=%d)", i, res.Exact)
		}
	}
	if len(res.Hits) <= res.Exact {
		t.Fatalf("no rewrite answers survived (%d hits, %d exact) — ordering test is vacuous",
			len(res.Hits), res.Exact)
	}
}

// TestDegradeAllShardsFailedErrors: losing every shard is an error, never an
// empty 200.
func TestDegradeAllShardsFailedErrors(t *testing.T) {
	t.Parallel()
	c, reg := degradeCorpus(t, Tuning{})
	reg.Enable(faults.Injection{Site: FaultShardSearch, Err: errInjected}) // every shard, every attempt
	q, err := twig.Parse("//item//name")
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.SearchHits(context.Background(), q, core.SearchOptions{K: 10})
	if err == nil {
		t.Fatalf("all-shards-failed returned a result (%d hits) instead of an error", len(res.Hits))
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("err = %v, want the injected cause in the chain", err)
	}
	if got := err.Error(); !errors.Is(err, errInjected) || !containsAll(got, "all", "failed") {
		t.Fatalf("error %q does not say every shard failed", got)
	}
}

// TestFailFastReturnsShardError: under failfast the same single-shard
// failure that degrade absorbs fails the whole request.
func TestFailFastReturnsShardError(t *testing.T) {
	t.Parallel()
	c, reg := degradeCorpus(t, Tuning{Policy: PolicyFailFast})
	reg.Enable(faults.Injection{Site: FaultShardSearch, Keys: []string{"xmark/001"}, Err: errInjected})
	q, err := twig.Parse("//item//name")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.SearchHits(context.Background(), q, core.SearchOptions{K: 10})
	if !errors.Is(err, errInjected) {
		t.Fatalf("failfast err = %v, want the injected failure", err)
	}
	if !containsAll(err.Error(), "xmark/001") {
		t.Fatalf("failfast error %q does not name the shard", err)
	}
}

// TestShardTimeoutMarksSlowShardFailed: a shard blowing its per-shard budget
// is a failure like any other — the survivors answer, the straggler is named.
func TestShardTimeoutMarksSlowShardFailed(t *testing.T) {
	t.Parallel()
	c, reg := degradeCorpus(t, Tuning{ShardTimeout: 15 * time.Millisecond})
	reg.Enable(faults.Injection{Site: FaultShardSearch, Keys: []string{"xmark/003"}, Latency: 5 * time.Second})
	start := time.Now()
	res := mustSearch(t, c, "//item//name", core.SearchOptions{K: 100})
	if !res.Partial || len(res.FailedShards) != 1 || res.FailedShards[0] != "xmark/003" {
		t.Fatalf("partial=%v failed=%v, want the slow shard failed", res.Partial, res.FailedShards)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("degraded answer took %v — the shard budget did not cut the straggler", took)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits from the surviving shards")
	}
}

// TestBreakerQuarantinesAndResets walks the breaker through a corpus-level
// lifecycle: consecutive failures trip it, a tripped shard is skipped
// without evaluation, the admin reset restores it.
func TestBreakerQuarantinesAndResets(t *testing.T) {
	t.Parallel()
	d, err := dataset.Build(dataset.XMark, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := faults.New()
	mreg := metrics.New()
	met := mreg.Corpus("xmark")
	c, err := FromDocument("xmark", d, 4, Config{
		Faults:  reg,
		Metrics: met,
		Tuning:  Tuning{BreakerThreshold: 2, BreakerCooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	const victim = "xmark/002"
	reg.Enable(faults.Injection{Site: FaultShardSearch, Keys: []string{victim}, Err: errInjected})
	const qs = "//item//name"
	opts := core.SearchOptions{K: 100}

	// Two failed fan-outs (each burns both attempts) reach the threshold.
	for i := 0; i < 2; i++ {
		res := mustSearch(t, c, qs, opts)
		if !res.Partial {
			t.Fatalf("fan-out %d: not partial", i)
		}
	}
	h, err := c.ShardHealthOf(victim)
	if err != nil {
		t.Fatal(err)
	}
	if h.State != "open" || h.Trips != 1 {
		t.Fatalf("after threshold: %+v", h)
	}
	if got := c.QuarantinedShards(); len(got) != 1 || got[0] != victim {
		t.Fatalf("QuarantinedShards = %v", got)
	}
	if msg := c.Degraded(); msg == "" || !containsAll(msg, victim) {
		t.Fatalf("Degraded() = %q, want the quarantined shard named", msg)
	}

	// Quarantined: the fan-out skips the shard without evaluating it, even
	// though the fault is disarmed — the cooldown hasn't expired.
	reg.Reset()
	fired := reg.Fired(FaultShardSearch)
	res := mustSearch(t, c, qs, opts)
	if !res.Partial || len(res.FailedShards) != 1 || res.FailedShards[0] != victim {
		t.Fatalf("quarantined shard not skipped: partial=%v failed=%v", res.Partial, res.FailedShards)
	}
	if n := reg.Fired(FaultShardSearch); n != fired {
		t.Fatalf("quarantined shard was still evaluated (fired %d -> %d)", fired, n)
	}

	// Counters surfaced in metrics.
	if met.BreakerTrips.Load() != 1 {
		t.Fatalf("BreakerTrips = %d, want 1", met.BreakerTrips.Load())
	}
	if met.Partial.Load() < 3 {
		t.Fatalf("Partial = %d, want >= 3", met.Partial.Load())
	}
	if met.ShardFailures.Load() < 3 {
		t.Fatalf("ShardFailures = %d, want >= 3", met.ShardFailures.Load())
	}
	if q := mreg.Snapshot().Corpora["xmark"].QuarantinedShards; q != 1 {
		t.Fatalf("QuarantinedShards = %d, want 1", q)
	}

	// The admin reset closes the breaker; the healed shard serves again.
	if err := c.ResetShardHealth(victim); err != nil {
		t.Fatal(err)
	}
	res = mustSearch(t, c, qs, opts)
	if res.Partial {
		t.Fatalf("after reset: still partial (%v)", res.FailedShards)
	}
	if h, _ := c.ShardHealthOf(victim); h.State != "closed" {
		t.Fatalf("after reset+success: state %q", h.State)
	}
	if err := c.ResetShardHealth("no-such-shard"); err == nil {
		t.Fatal("resetting an unknown shard must error")
	}
}

// TestBreakerHalfOpenProbeHeals: after the cooldown, one probe request flows
// through and a success closes the breaker.
func TestBreakerHalfOpenProbeHeals(t *testing.T) {
	t.Parallel()
	d := mustDoc(t, "bib", bibXML)
	reg := faults.New()
	c, err := FromDocument("bib", d, 2, Config{
		Faults: reg,
		Tuning: Tuning{BreakerThreshold: 1, BreakerCooldown: 30 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Times: 2 covers exactly one fan-out's two attempts; threshold 1 trips.
	reg.Enable(faults.Injection{Site: FaultShardSearch, Keys: []string{"bib/000"}, Err: errInjected, Times: 2})
	const qs = "//article/title"
	opts := core.SearchOptions{K: 10}
	if res := mustSearch(t, c, qs, opts); !res.Partial {
		t.Fatal("tripping fan-out not partial")
	}
	if h, _ := c.ShardHealthOf("bib/000"); h.State != "open" {
		t.Fatalf("state = %q, want open", h.State)
	}
	time.Sleep(50 * time.Millisecond) // let the cooldown lapse
	res := mustSearch(t, c, qs, opts) // the half-open probe; injection is spent
	if res.Partial {
		t.Fatalf("probe fan-out still partial: %v", res.FailedShards)
	}
	if h, _ := c.ShardHealthOf("bib/000"); h.State != "closed" {
		t.Fatalf("after successful probe: state %q", h.State)
	}
}

// containsAll reports whether s contains every substring.
func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
