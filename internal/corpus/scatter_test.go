package corpus

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/faults"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// scatterOp is one operation that crosses the shard fan-out: the fault site
// it names, the span that parents its "shard" spans, and a call that runs it.
type scatterOp struct {
	name, site, span string
	run              func(ctx context.Context, c *Corpus) error
}

func scatterOps(t *testing.T) []scatterOp {
	t.Helper()
	parse := func(s string) *twig.Query {
		q, err := twig.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	return []scatterOp{
		{"search", FaultShardSearch, "fanout", func(ctx context.Context, c *Corpus) error {
			_, err := c.SearchHits(ctx, parse("//article/title"), core.SearchOptions{K: 10})
			return err
		}},
		{"completeTags", FaultShardComplete, "complete:merge", func(ctx context.Context, c *Corpus) error {
			q := parse("//article")
			_, err := c.CompleteTags(ctx, q, q.OutputNode().ID, twig.Child, "", 10)
			return err
		}},
		{"completeValues", FaultShardComplete, "complete:merge", func(ctx context.Context, c *Corpus) error {
			q := parse("//article/title")
			_, err := c.CompleteValues(ctx, q, q.OutputNode().ID, "", 10)
			return err
		}},
		{"explain", FaultShardComplete, "explain:merge", func(ctx context.Context, c *Corpus) error {
			q := parse("//article")
			_, err := c.ExplainTags(ctx, q, q.OutputNode().ID, twig.Child, "title", 0)
			return err
		}},
	}
}

// errKind classifies a scatter error the way the HTTP layer does (see
// server.writeBackendError): context → 504, quarantine → 503, shard → 502.
func errKind(err error) string {
	var se *ShardError
	switch {
	case err == nil:
		return "ok"
	case isCtxErr(err):
		return "ctx"
	case errors.Is(err, ErrShardQuarantined):
		return "quarantine"
	case errors.As(err, &se):
		return "shard"
	}
	return "other: " + err.Error()
}

// TestScatterOneDisciplinePerOperation drives search, both completions and
// explain through the same shard failures and requires the same outcome from
// each: error type, failed-shard names, breaker verdicts, and one "shard"
// span per shard with the attempts/skipped attributes.
func TestScatterOneDisciplinePerOperation(t *testing.T) {
	const (
		threshold = 2
		victim    = "bib/001"
	)
	names := []string{"bib/000", "bib/001", "bib/002", "bib/003"}
	// quarantine opens a shard's breaker the way real traffic would.
	quarantine := func(c *Corpus, shards ...string) {
		for _, name := range shards {
			for i := 0; i < threshold; i++ {
				c.health.failure(name, errInjected)
			}
		}
	}
	// want is what every operation must show for a scenario.  consecutive and
	// spans list only the shards that differ from "closed, 0 failures" and
	// "one plain span"; spans is checked under degrade, where every shard is
	// visited.
	type want struct {
		degrade, failfast []string // acceptable errKinds
		failed            string   // the failedShards attr of a degraded success
		consecutive       map[string]int
		open              []string
		spans             map[string]string // shard → "skipped" or "attempts=2"
	}
	scenarios := []struct {
		name string
		arm  func(c *Corpus, reg *faults.Registry, site string, cancel context.CancelFunc)
		want want
	}{
		{"one shard erroring",
			func(_ *Corpus, reg *faults.Registry, site string, _ context.CancelFunc) {
				reg.Enable(faults.Injection{Site: site, Keys: []string{victim}, Err: errInjected})
			},
			want{degrade: []string{"ok"}, failfast: []string{"shard"}, failed: victim,
				consecutive: map[string]int{victim: 1}, spans: map[string]string{victim: "attempts=2"}}},
		{"one shard quarantined",
			func(c *Corpus, _ *faults.Registry, _ string, _ context.CancelFunc) { quarantine(c, victim) },
			want{degrade: []string{"ok"}, failfast: []string{"quarantine"}, failed: victim,
				consecutive: map[string]int{victim: threshold}, open: []string{victim},
				spans: map[string]string{victim: "skipped"}}},
		{"all erroring",
			func(_ *Corpus, reg *faults.Registry, site string, _ context.CancelFunc) {
				reg.Enable(faults.Injection{Site: site, Err: errInjected})
			},
			want{degrade: []string{"shard"}, failfast: []string{"shard"},
				consecutive: map[string]int{names[0]: 1, names[1]: 1, names[2]: 1, names[3]: 1},
				spans:       map[string]string{names[0]: "attempts=2", names[1]: "attempts=2", names[2]: "attempts=2", names[3]: "attempts=2"}}},
		{"all quarantined",
			func(c *Corpus, _ *faults.Registry, _ string, _ context.CancelFunc) { quarantine(c, names...) },
			want{degrade: []string{"quarantine"}, failfast: []string{"quarantine"},
				consecutive: map[string]int{names[0]: threshold, names[1]: threshold, names[2]: threshold, names[3]: threshold},
				open:        names,
				spans:       map[string]string{names[0]: "skipped", names[1]: "skipped", names[2]: "skipped", names[3]: "skipped"}}},
		{"erroring and quarantined mixed",
			func(c *Corpus, reg *faults.Registry, site string, _ context.CancelFunc) {
				quarantine(c, names[0])
				reg.Enable(faults.Injection{Site: site, Err: errInjected})
			},
			// A real failure outranks the skip under degrade; failfast reports
			// whichever shard was reached first.
			want{degrade: []string{"shard"}, failfast: []string{"shard", "quarantine"},
				consecutive: map[string]int{names[0]: threshold, names[1]: 1, names[2]: 1, names[3]: 1},
				open:        names[:1],
				spans:       map[string]string{names[0]: "skipped", names[1]: "attempts=2", names[2]: "attempts=2", names[3]: "attempts=2"}}},
		{"caller cancelled mid-call",
			func(_ *Corpus, reg *faults.Registry, site string, cancel context.CancelFunc) {
				reg.Enable(faults.Injection{Site: site, Keys: []string{victim}, Hook: func(ctx context.Context, _ string) error {
					cancel()
					<-ctx.Done()
					return ctx.Err()
				}})
			},
			// No verdict on any shard: nobody's breaker advances.
			want{degrade: []string{"ctx"}, failfast: []string{"ctx"}}},
		{"transient error healed by the retry",
			func(_ *Corpus, reg *faults.Registry, site string, _ context.CancelFunc) {
				reg.Enable(faults.Injection{Site: site, Keys: []string{victim}, Err: errInjected, Times: 1})
			},
			want{degrade: []string{"ok"}, failfast: []string{"ok"}, spans: map[string]string{victim: "attempts=2"}}},
	}

	// Completions and explain stay on the caller's goroutine over local
	// shards and go wide over remote ones; the discipline must not depend on
	// which, so they are driven both ways (remote only selects the width
	// here: the shards stay in-process).
	type run struct {
		op     scatterOp
		remote bool
		policy ShardPolicy
	}
	var runs []run
	for _, op := range scatterOps(t) {
		for _, policy := range []ShardPolicy{PolicyDegrade, PolicyFailFast} {
			runs = append(runs, run{op, false, policy})
			if op.site == FaultShardComplete {
				runs = append(runs, run{op, true, policy})
			}
		}
	}
	for _, r := range runs {
		op, policy := r.op, r.policy
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/remote=%v/%s/%s", op.name, r.remote, policy, sc.name), func(t *testing.T) {
				t.Parallel()
				reg := faults.New()
				c, err := FromDocument("bib", mustDoc(t, "bib", bibXML), 4, Config{
					Faults: reg,
					Tuning: Tuning{Policy: policy, BreakerThreshold: threshold, BreakerCooldown: time.Hour},
				})
				if err != nil {
					t.Fatal(err)
				}
				c.remote = r.remote
				if got := c.Snapshot().Names(); !reflect.DeepEqual(got, names) {
					t.Fatalf("shards = %v, want %v", got, names)
				}
				tr := obs.New(op.name)
				ctx, cancel := context.WithCancel(obs.ContextWith(context.Background(), tr.Root()))
				defer cancel()
				sc.arm(c, reg, op.site, cancel)

				err = op.run(ctx, c)
				tr.Finish()

				kinds := sc.want.degrade
				if policy == PolicyFailFast {
					kinds = sc.want.failfast
				}
				kind := errKind(err)
				if !slices.Contains(kinds, kind) {
					t.Fatalf("error kind %q (%v), want one of %v", kind, err, kinds)
				}
				var qe *QuarantineError
				if kind == "quarantine" && (!errors.As(err, &qe) || qe.RetryAfter <= 0) {
					t.Errorf("quarantine error %v carries no RetryAfter", err)
				}
				if policy == PolicyDegrade && kind != "ok" && kind != "ctx" && !strings.Contains(err.Error(), "all 4 shard(s)") {
					t.Errorf("degrade error %q does not say every shard failed", err)
				}

				// Breaker verdicts.  Failfast stops visiting shards at the
				// first failure, so which erroring shards got their verdict
				// depends on the schedule; quarantines and the no-verdict
				// scenarios hold under both policies.
				health := c.health.snapshot(names)
				for _, name := range names {
					h := health[name]
					wantOpen := slices.Contains(sc.want.open, name)
					if (h.State == breakerOpen) != wantOpen {
						t.Errorf("%s: breaker %q, want open=%v", name, h.State, wantOpen)
					}
					wantN := sc.want.consecutive[name]
					if policy == PolicyFailFast && !wantOpen && h.ConsecutiveFailures < wantN {
						continue // not reached before the fan-out was cancelled
					}
					if h.ConsecutiveFailures != wantN {
						t.Errorf("%s: %d consecutive failures, want %d", name, h.ConsecutiveFailures, wantN)
					}
				}

				// Spans: one "shard" child per shard under the operation's
				// own span, all ended, with the discipline's attributes.
				var parent *obs.Span
				spans := map[string]string{}
				tr.Each(func(s *obs.Span) {
					if !s.Ended() {
						t.Errorf("span %q left open", s.Name())
					}
					switch s.Name() {
					case op.span:
						parent = s
					case "shard":
						attr := ""
						if s.Attr("skipped") != "" {
							attr = "skipped"
						} else if a := s.Attr("attempts"); a != "" {
							attr = "attempts=" + a
						}
						if _, dup := spans[s.Attr("shard")]; dup {
							t.Errorf("two spans for shard %s", s.Attr("shard"))
						}
						spans[s.Attr("shard")] = attr
					}
				})
				if parent == nil {
					t.Fatalf("no %q span", op.span)
				}
				if kind == "ok" {
					if got := parent.Attr("failedShards"); got != sc.want.failed {
						t.Errorf("failedShards = %q, want %q", got, sc.want.failed)
					}
				}
				if policy == PolicyDegrade && kind != "ctx" {
					for _, name := range names {
						if got, ok := spans[name]; !ok || got != sc.want.spans[name] {
							t.Errorf("%s: span attrs %q (present=%v), want %q", name, got, ok, sc.want.spans[name])
						}
					}
				}
				if kind == "ctx" && parent.Attr("cancelCause") == "" {
					t.Errorf("%s span has no cancelCause", op.span)
				}
			})
		}
	}
}

// TestDegradedCompletionMarksTheContext: a completion merged without one of
// its shards marks the cell the completion cache installs (and only then),
// which is how a degraded candidate list stays out of the cache.
func TestDegradedCompletionMarksTheContext(t *testing.T) {
	t.Parallel()
	reg := faults.New()
	c, err := FromDocument("bib", mustDoc(t, "bib", bibXML), 4, Config{Faults: reg, Tuning: Tuning{BreakerThreshold: -1}})
	if err != nil {
		t.Fatal(err)
	}
	tags := func() ([]complete.Candidate, bool) {
		ctx, cell := core.WithDegradedCell(context.Background())
		cands, err := c.CompleteTags(ctx, nil, complete.NewRoot, twig.Child, "", 10)
		if err != nil {
			t.Fatal(err)
		}
		return cands, cell.Load()
	}
	whole, degraded := tags()
	if degraded || len(whole) == 0 {
		t.Fatalf("healthy completion: degraded=%v candidates=%v", degraded, whole)
	}
	reg.Enable(faults.Injection{Site: FaultShardComplete, Keys: []string{"bib/000"}, Err: errInjected})
	part, degraded := tags()
	if !degraded {
		t.Fatal("completion merged from three of four shards did not mark the context")
	}
	if reflect.DeepEqual(part, whole) {
		t.Fatalf("degraded candidates %v equal the whole answer", part)
	}
}
