package cache

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/doc"
	"lotusx/internal/faults"
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

const extraXML = `<dblp><article key="x1"><author>Ada Author</author><title>Twig Caching</title><year>2026</year></article></dblp>`

func mustDoc(t testing.TB, name, xml string) *doc.Document {
	t.Helper()
	d, err := doc.FromReader(name, strings.NewReader(xml))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustParse(t testing.TB, s string) *twig.Query {
	t.Helper()
	q, err := twig.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// countingBackend counts how often the real backend is actually asked.
type countingBackend struct {
	core.Backend
	searches  atomic.Int64
	completes atomic.Int64
}

func (b *countingBackend) SearchHits(ctx context.Context, q *twig.Query, opts core.SearchOptions) (*core.HitResult, error) {
	b.searches.Add(1)
	return b.Backend.SearchHits(ctx, q, opts)
}

func (b *countingBackend) CompleteTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, prefix string, k int) ([]complete.Candidate, error) {
	b.completes.Add(1)
	return b.Backend.CompleteTags(ctx, q, anchor, axis, prefix, k)
}

func (b *countingBackend) CompleteValues(ctx context.Context, q *twig.Query, focus int, prefix string, k int) ([]complete.Candidate, error) {
	b.completes.Add(1)
	return b.Backend.CompleteValues(ctx, q, focus, prefix, k)
}

// wrapCounting decorates raw with a call counter and then the cache set.
func wrapCounting(raw core.Backend, set *Set) (*countingBackend, core.Backend) {
	counted := &countingBackend{Backend: raw}
	return counted, set.Wrap(counted)
}

func newSet(t testing.TB) *Set {
	t.Helper()
	return NewSet(Config{Results: true, Completions: true, MaxBytes: 1 << 22, Metrics: metrics.New()})
}

// resultJSON renders a HitResult with the one legitimately nondeterministic
// field (wall-clock Elapsed) zeroed — the byte-identity the ISSUE's
// invariant speaks about.
func resultJSON(t testing.TB, res *core.HitResult) string {
	t.Helper()
	cp := *res
	cp.Elapsed = 0
	b, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestWrappedSearchByteIdentical compares wrapped against raw on both
// backend kinds, for several options shapes, cold and warm.
func TestWrappedSearchByteIdentical(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	single := core.FromDocument(d)
	sharded, err := corpus.FromDocument("bib", d, 2, corpus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, raw := range []core.Backend{single, sharded} {
		set := newSet(t)
		_, wrapped := wrapCounting(raw, set)
		for _, qs := range []string{"//article/title", `//article[author="Jiaheng Lu"]/title`, "//inproceedings/title"} {
			for _, opts := range []core.SearchOptions{
				{},
				{K: 2},
				{K: 1, Offset: 1},
				{K: 2, Rewrite: true},
				{K: 3, SnippetMax: 60},
			} {
				want, err := raw.SearchHits(context.Background(), mustParse(t, qs), opts)
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ { // cold, then warm
					got, err := wrapped.SearchHits(context.Background(), mustParse(t, qs), opts)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
						t.Fatalf("%s %s pass %d (%+v):\n got %s\nwant %s", raw.Info().Kind, qs, pass, opts, g, w)
					}
				}
			}
		}
	}
}

// TestPageFolding: page N must be served from page 0's entry without a
// second backend evaluation, and still match the raw answer exactly.
func TestPageFolding(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	raw, err := corpus.FromDocument("bib", d, 2, corpus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	set := newSet(t)
	counted, wrapped := wrapCounting(raw, set)
	q := "//article/title"

	// Warm with the (K=3, Offset=0) materialization...
	if _, err := wrapped.SearchHits(context.Background(), mustParse(t, q), core.SearchOptions{K: 3}); err != nil {
		t.Fatal(err)
	}
	// ...then ask for interior pages of the same prefix.
	for _, opts := range []core.SearchOptions{{K: 1, Offset: 2}, {K: 2, Offset: 1}, {K: 3, Offset: 0}} {
		want, err := raw.SearchHits(context.Background(), mustParse(t, q), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wrapped.SearchHits(context.Background(), mustParse(t, q), opts)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
			t.Fatalf("page %+v:\n got %s\nwant %s", opts, g, w)
		}
	}
	if n := counted.searches.Load(); n != 1 {
		t.Fatalf("backend evaluated %d times; want 1 (pages folded)", n)
	}
}

// TestCompletionCachingAndPrefixExtension: typing a prefix one rune at a
// time after the first keystroke's entry is complete must not touch the
// backend again, and derived answers must equal fresh ones.
func TestCompletionCachingAndPrefixExtension(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	raw, err := corpus.FromDocument("bib", d, 2, corpus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	set := newSet(t)
	counted, wrapped := wrapCounting(raw, set)
	ctx := context.Background()

	// Complete children of //dblp: "article" and "inproceedings" — fewer
	// than k and exact, so the empty-prefix entry is complete.
	anchorQ := mustParse(t, "//dblp")
	anchor := anchorQ.OutputNode().ID
	first, err := wrapped.CompleteTags(ctx, anchorQ.Clone(), anchor, twig.Child, "", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first) >= 10 {
		t.Fatalf("child tag candidates = %d, want a complete (0 < n < k) set", len(first))
	}
	for _, prefix := range []string{"a", "ar", "art", "arti"} {
		want, err := raw.CompleteTags(ctx, anchorQ.Clone(), anchor, twig.Child, prefix, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wrapped.CompleteTags(ctx, anchorQ.Clone(), anchor, twig.Child, prefix, 10)
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("prefix %q: derived %s != fresh %s", prefix, gj, wj)
		}
	}
	if n := counted.completes.Load(); n != 1 {
		t.Fatalf("backend completed %d times; want 1 (prefixes derived)", n)
	}

	// Case-insensitivity of the key: "AR" is the same request as "ar".
	if _, err := wrapped.CompleteTags(ctx, anchorQ.Clone(), anchor, twig.Child, "AR", 10); err != nil {
		t.Fatal(err)
	}
	if n := counted.completes.Load(); n != 1 {
		t.Fatalf("case-folded prefix recomputed (%d calls)", n)
	}

	// An empty filter result must fall through to the backend (fuzzy
	// fallback lives there), not return a cached empty answer.
	want, err := raw.CompleteTags(ctx, anchorQ.Clone(), anchor, twig.Child, "zzz", 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wrapped.CompleteTags(ctx, anchorQ.Clone(), anchor, twig.Child, "zzz", 10)
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("fallthrough prefix: %s != %s", gj, wj)
	}
	if n := counted.completes.Load(); n != 2 {
		t.Fatalf("empty-filter prefix did not reach the backend (%d calls)", n)
	}
}

// TestCompletionValuesCached covers the value-kind path (raw-text prefix
// predicate) end to end.
func TestCompletionValuesCached(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	raw := core.FromDocument(d)
	set := newSet(t)
	counted, wrapped := wrapCounting(raw, set)
	ctx := context.Background()

	q := mustParse(t, "//article/year")
	focus := q.OutputNode().ID
	want, err := raw.CompleteValues(ctx, q.Clone(), focus, "2", 10)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := wrapped.CompleteValues(ctx, q.Clone(), focus, "2", 10)
		if err != nil {
			t.Fatal(err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if string(gj) != string(wj) {
			t.Fatalf("pass %d: %s != %s", pass, gj, wj)
		}
	}
	if n := counted.completes.Load(); n != 1 {
		t.Fatalf("values completed %d times; want 1", n)
	}
}

// TestGenerationInvalidation: a corpus mutation must make every cached
// answer unreachable — the next query recomputes against the new snapshot.
func TestGenerationInvalidation(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	raw, err := corpus.FromDocument("bib", d, 2, corpus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	set := newSet(t)
	counted, wrapped := wrapCounting(raw, set)
	ctx := context.Background()
	qs := "//article/title"
	opts := core.SearchOptions{K: 10}

	before, err := wrapped.SearchHits(ctx, mustParse(t, qs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wrapped.CompleteTags(ctx, nil, complete.NewRoot, twig.Child, "", 10); err != nil {
		t.Fatal(err)
	}

	if err := raw.Add("extra", mustDoc(t, "extra", extraXML)); err != nil {
		t.Fatal(err)
	}

	after, err := wrapped.SearchHits(ctx, mustParse(t, qs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Hits) != len(before.Hits)+1 {
		t.Fatalf("post-ingest hits = %d; want %d (stale entry served?)", len(after.Hits), len(before.Hits)+1)
	}
	fresh, err := raw.SearchHits(ctx, mustParse(t, qs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, after) != resultJSON(t, fresh) {
		t.Fatalf("post-ingest cached path diverged from raw:\n%s\n%s", resultJSON(t, after), resultJSON(t, fresh))
	}
	if n := counted.searches.Load(); n != 2 {
		t.Fatalf("searches = %d; want 2 (one per generation)", n)
	}

	// Remove flips the generation again: back to the original answer set,
	// but via a fresh evaluation, never the pre-ingest entry... which is in
	// fact byte-identical here, proving the arithmetic both ways.
	if err := raw.Remove("extra"); err != nil {
		t.Fatal(err)
	}
	again, err := wrapped.SearchHits(ctx, mustParse(t, qs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, again) != resultJSON(t, before) {
		t.Fatalf("post-remove answer diverged from original")
	}
	if n := counted.searches.Load(); n != 3 {
		t.Fatalf("searches = %d; want 3", n)
	}
}

// TestPartialResultsNeverCached arms a persistent fault on one shard: every
// degraded answer must be recomputed, and once the shard recovers the
// pre-recovery degraded answers must not linger anywhere.
func TestPartialResultsNeverCached(t *testing.T) {
	reg := faults.New()
	d := mustDoc(t, "bib", bibXML)
	raw, err := corpus.FromDocument("bib", d, 2, corpus.Config{
		Faults: reg,
		// A forgiving breaker so the faulty shard keeps being attempted
		// (and keeps failing) rather than being quarantined mid-test.
		Tuning: corpus.Tuning{BreakerThreshold: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	shard := raw.Snapshot().Names()[0]
	set := newSet(t)
	counted, wrapped := wrapCounting(raw, set)
	ctx := context.Background()
	qs := "//article/title"

	reg.Enable(faults.Injection{Site: corpus.FaultShardSearch, Keys: []string{shard}, Err: errors.New("injected shard failure")})
	for i := 0; i < 3; i++ {
		res, err := wrapped.SearchHits(ctx, mustParse(t, qs), core.SearchOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Partial {
			t.Fatalf("query %d: expected a degraded answer while the fault is armed", i)
		}
	}
	if n := counted.searches.Load(); n != 3 {
		t.Fatalf("searches = %d; want 3 (degraded answers must not be cached)", n)
	}

	// Recovery: the fault is disarmed, the next query is full — computed
	// fresh, not resurrected from any pre-recovery state — and only then
	// does caching kick in.
	reg.Disable(corpus.FaultShardSearch)
	full, err := wrapped.SearchHits(ctx, mustParse(t, qs), core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if full.Partial {
		t.Fatal("still partial after recovery")
	}
	want, err := raw.SearchHits(ctx, mustParse(t, qs), core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, full) != resultJSON(t, want) {
		t.Fatal("post-recovery answer differs from raw")
	}
	repeat, err := wrapped.SearchHits(ctx, mustParse(t, qs), core.SearchOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !repeat.Partial && resultJSON(t, repeat) != resultJSON(t, want) {
		t.Fatal("warm post-recovery answer differs")
	}
	if n := counted.searches.Load(); n != 4 {
		t.Fatalf("searches = %d; want 4 (full answer cached after recovery)", n)
	}
}

// TestDegradedCompletionsNeverCached quarantines one of four shards: while
// its breaker is open every completion is merged from the three survivors
// and must be recomputed — never stored, never the parent of a prefix
// extension — and once the breaker is reset the whole answer is computed
// fresh and only then cached.
func TestDegradedCompletionsNeverCached(t *testing.T) {
	reg := faults.New()
	d := mustDoc(t, "bib", bibXML)
	raw, err := corpus.FromDocument("bib", d, 4, corpus.Config{
		Faults: reg,
		Tuning: corpus.Tuning{BreakerThreshold: 1, BreakerCooldown: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := raw.Snapshot().Len(); n != 4 {
		t.Fatalf("shards = %d, want 4", n)
	}
	set := newSet(t)
	counted, wrapped := wrapCounting(raw, set)
	ctx := context.Background()
	anchorQ := mustParse(t, "//dblp")
	anchor := anchorQ.OutputNode().ID
	tags := func(b core.Backend, prefix string) string {
		t.Helper()
		cands, err := b.CompleteTags(ctx, anchorQ.Clone(), anchor, twig.Child, prefix, 10)
		if err != nil {
			t.Fatal(err)
		}
		j, _ := json.Marshal(cands)
		return string(j)
	}
	whole := tags(raw, "")

	// Trip the victim's breaker through the search fault site.
	victim := raw.Snapshot().Names()[0]
	reg.Enable(faults.Injection{Site: corpus.FaultShardSearch, Keys: []string{victim}, Err: errors.New("injected shard failure")})
	if res, err := raw.SearchHits(ctx, mustParse(t, "//article/title"), core.SearchOptions{K: 10}); err != nil || !res.Partial {
		t.Fatalf("tripping search: partial=%v err=%v", res != nil && res.Partial, err)
	}
	reg.Disable(corpus.FaultShardSearch)
	if q := raw.QuarantinedShards(); len(q) != 1 || q[0] != victim {
		t.Fatalf("quarantined = %v, want [%s]", q, victim)
	}

	for i := 0; i < 2; i++ {
		if got := tags(wrapped, ""); got == whole {
			t.Fatalf("call %d: answer %s counts the quarantined shard", i, got)
		}
	}
	tags(wrapped, "a") // a degraded "" entry must not answer this by filtering
	if n := counted.completes.Load(); n != 3 {
		t.Fatalf("backend completed %d times; want 3 (degraded answers must not be cached)", n)
	}

	if err := raw.ResetShardHealth(victim); err != nil {
		t.Fatal(err)
	}
	if got := tags(wrapped, ""); got != whole {
		t.Fatalf("after reset: %s, want the four-shard answer %s", got, whole)
	}
	if got := tags(wrapped, ""); got != whole {
		t.Fatalf("warm after reset: %s, want %s", got, whole)
	}
	if n := counted.completes.Load(); n != 4 {
		t.Fatalf("backend completed %d times; want 4 (whole answer cached after reset)", n)
	}
}

// TestBypassSkipsCache: a bypassed context must neither read nor write.
func TestBypassSkipsCache(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	raw := core.FromDocument(d)
	set := newSet(t)
	counted, wrapped := wrapCounting(raw, set)
	qs := "//article/title"

	bctx := WithBypass(context.Background())
	for i := 0; i < 2; i++ {
		if _, err := wrapped.SearchHits(bctx, mustParse(t, qs), core.SearchOptions{K: 5}); err != nil {
			t.Fatal(err)
		}
		if _, err := wrapped.CompleteTags(bctx, nil, complete.NewRoot, twig.Child, "a", 10); err != nil {
			t.Fatal(err)
		}
	}
	if s, c := counted.searches.Load(), counted.completes.Load(); s != 2 || c != 2 {
		t.Fatalf("bypassed calls were cached: searches=%d completes=%d; want 2, 2", s, c)
	}
	// And nothing was written: a normal request still misses.
	if _, err := wrapped.SearchHits(context.Background(), mustParse(t, qs), core.SearchOptions{K: 5}); err != nil {
		t.Fatal(err)
	}
	if n := counted.searches.Load(); n != 3 {
		t.Fatalf("bypassed result leaked into the cache (searches=%d)", n)
	}
}

// TestInterleavingInvariant is the ISSUE's correctness invariant: for a
// deterministic interleaving of queries, completions and admin mutations,
// every wrapped answer equals the raw answer computed fresh at that moment.
func TestInterleavingInvariant(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	raw, err := corpus.FromDocument("bib", d, 2, corpus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	set := newSet(t)
	_, wrapped := wrapCounting(raw, set)
	ctx := context.Background()

	queries := []string{"//article/title", `//article[author="Jiaheng Lu"]/title`, "//inproceedings/title"}
	pages := []core.SearchOptions{{K: 10}, {K: 2}, {K: 2, Offset: 1}, {K: 1, Offset: 2}}
	prefixes := []string{"", "a", "ar", "t", "ti"}

	check := func(step int) {
		for _, qs := range queries {
			for _, opts := range pages {
				want, err := raw.SearchHits(ctx, mustParse(t, qs), opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := wrapped.SearchHits(ctx, mustParse(t, qs), opts)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := resultJSON(t, got), resultJSON(t, want); g != w {
					t.Fatalf("step %d %s %+v:\n got %s\nwant %s", step, qs, opts, g, w)
				}
			}
		}
		for _, p := range prefixes {
			want, err := raw.CompleteTags(ctx, nil, complete.NewRoot, twig.Child, p, 10)
			if err != nil {
				t.Fatal(err)
			}
			got, err := wrapped.CompleteTags(ctx, nil, complete.NewRoot, twig.Child, p, 10)
			if err != nil {
				t.Fatal(err)
			}
			gj, _ := json.Marshal(got)
			wj, _ := json.Marshal(want)
			if string(gj) != string(wj) {
				t.Fatalf("step %d prefix %q: %s != %s", step, p, gj, wj)
			}
		}
	}

	mutations := []func() error{
		func() error { return raw.Add("extra", mustDoc(t, "extra", extraXML)) },
		func() error { return raw.Remove("extra") },
		func() error { return raw.Add("extra", mustDoc(t, "extra", extraXML)) },
		// Republishing identical content still bumps the generation.
		func() error { return raw.Add("extra", mustDoc(t, "extra", extraXML)) },
		func() error { return raw.Remove("extra") },
	}
	check(0)
	for i, mut := range mutations {
		if err := mut(); err != nil {
			t.Fatal(err)
		}
		check(i + 1)
	}
}

// TestSingleflightCollapsesBackendCalls drives N concurrent identical
// queries through a deliberately slow backend and requires one evaluation.
func TestSingleflightCollapsesBackendCalls(t *testing.T) {
	d := mustDoc(t, "bib", bibXML)
	raw := core.FromDocument(d)
	slow := &slowBackend{Backend: raw, delay: 30 * time.Millisecond}
	set := newSet(t)
	wrapped := set.Wrap(slow)

	const n = 8
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := wrapped.SearchHits(context.Background(), mustParse(t, "//article/title"), core.SearchOptions{K: 5})
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := slow.calls.Load(); got != 1 {
		t.Fatalf("backend evaluated %d times under concurrency; want 1", got)
	}
}

// slowBackend stretches each evaluation so concurrent callers overlap.
type slowBackend struct {
	core.Backend
	delay time.Duration
	calls atomic.Int64
}

func (b *slowBackend) SearchHits(ctx context.Context, q *twig.Query, opts core.SearchOptions) (*core.HitResult, error) {
	b.calls.Add(1)
	time.Sleep(b.delay)
	return b.Backend.SearchHits(ctx, q, opts)
}
