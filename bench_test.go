// Benchmarks: one testing.B target per paper experiment of DESIGN.md §5
// (E1–E11, A1–A2).  cmd/lotusx-bench prints the full suite's tables (E1–E11,
// E14, E17, A1–A3); these targets expose the same code paths to
// `go test -bench`, with quality metrics reported via b.ReportMetric where
// the experiment measures accuracy rather than time.
package lotusx_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"lotusx/internal/bench"
	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/join"
	"lotusx/internal/twig"
)

// benchScale keeps `go test -bench .` runs laptop-sized; cmd/lotusx-bench
// takes -scale for larger sweeps.
const benchScale = 1

var (
	setupOnce sync.Once
	xmlBytes  map[dataset.Kind][]byte
	engines   map[dataset.Kind]*core.Engine
)

func setup(b *testing.B) {
	b.Helper()
	setupOnce.Do(func() {
		xmlBytes = make(map[dataset.Kind][]byte)
		engines = make(map[dataset.Kind]*core.Engine)
		for _, kind := range dataset.Kinds {
			var buf bytes.Buffer
			if err := dataset.Generate(kind, benchScale, 42, &buf); err != nil {
				panic(err)
			}
			xmlBytes[kind] = buf.Bytes()
			d, err := doc.FromReader(string(kind), bytes.NewReader(buf.Bytes()))
			if err != nil {
				panic(err)
			}
			engines[kind] = core.FromDocument(d)
		}
	})
}

// BenchmarkE1IndexBuild measures ingestion: parse + label + index + guide,
// per dataset (experiment E1).
func BenchmarkE1IndexBuild(b *testing.B) {
	setup(b)
	for _, kind := range dataset.Kinds {
		b.Run(string(kind), func(b *testing.B) {
			src := xmlBytes[kind]
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := doc.FromReader(string(kind), bytes.NewReader(src))
				if err != nil {
					b.Fatal(err)
				}
				core.FromDocument(d)
			}
		})
	}
}

// BenchmarkE2TwigAlgorithms measures evaluation time per workload query and
// algorithm (experiment E2).
func BenchmarkE2TwigAlgorithms(b *testing.B) {
	setup(b)
	for _, q := range bench.Workload() {
		parsed := twig.MustParse(q.Text)
		ix := engines[q.Kind].Index()
		for _, alg := range join.Algorithms {
			b.Run(fmt.Sprintf("%s/%s", q.ID, alg), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := join.Run(ix, parsed, alg, join.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkE3Intermediate reports intermediate path solutions per query for
// PathStack vs TwigStack (experiment E3) as a custom metric.
func BenchmarkE3Intermediate(b *testing.B) {
	setup(b)
	for _, q := range bench.Workload() {
		parsed := twig.MustParse(q.Text)
		ix := engines[q.Kind].Index()
		for _, alg := range []join.Algorithm{join.PathStack, join.TwigStack} {
			b.Run(fmt.Sprintf("%s/%s", q.ID, alg), func(b *testing.B) {
				var sols int
				for i := 0; i < b.N; i++ {
					res, err := join.Run(ix, parsed, alg, join.Options{})
					if err != nil {
						b.Fatal(err)
					}
					sols = res.Stats.PathSolutions
				}
				b.ReportMetric(float64(sols), "pathsols")
			})
		}
	}
}

// BenchmarkE4ParentChild measures the parent-child-heavy subset under
// TwigStack (experiment E4).
func BenchmarkE4ParentChild(b *testing.B) {
	setup(b)
	for _, q := range bench.Workload() {
		if !q.PCHeavy {
			continue
		}
		parsed := twig.MustParse(q.Text)
		ix := engines[q.Kind].Index()
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := join.Run(ix, parsed, join.TwigStack, join.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// completionCases returns representative completion probes per dataset.
func completionCases() []struct {
	kind    dataset.Kind
	context string
	prefix  string
} {
	return []struct {
		kind    dataset.Kind
		context string
		prefix  string
	}{
		{dataset.DBLP, "//article", "a"},
		{dataset.DBLP, "//inproceedings", "boo"},
		{dataset.XMark, "//open_auction/bidder", "in"},
		{dataset.XMark, "//person", "pr"},
		{dataset.TreeBank, "//S/VP", "N"},
	}
}

// BenchmarkE5CompletionLatency measures position-aware vs naive tag
// completion (experiment E5).
func BenchmarkE5CompletionLatency(b *testing.B) {
	setup(b)
	for _, c := range completionCases() {
		engine := engines[c.kind]
		q := twig.MustParse(c.context)
		focus := q.OutputNode().ID
		b.Run(fmt.Sprintf("aware/%s%s", c.kind, c.context), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.Completer().SuggestTags(q, focus, twig.Child, c.prefix, 10)
			}
		})
		b.Run(fmt.Sprintf("naive/%s/%s", c.kind, c.prefix), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.Completer().SuggestTagsNaive(c.prefix, 10)
			}
		})
	}
}

// BenchmarkE6CompletionQuality reports MRR of the intended tag for the
// position-aware and naive engines (experiment E6; accuracy metric, the
// time column is incidental).
func BenchmarkE6CompletionQuality(b *testing.B) {
	setup(b)
	runQuality := func(b *testing.B, aware bool) {
		var mrr float64
		for i := 0; i < b.N; i++ {
			var recip float64
			var n int
			for _, q := range bench.Workload() {
				parsed := twig.MustParse(q.Text)
				engine := engines[q.Kind]
				for _, qn := range parsed.Nodes() {
					if qn.Parent() == nil || qn.IsWildcard() {
						continue
					}
					n++
					prefix := qn.Tag[:1]
					var cands []complete.Candidate
					if aware {
						cands = engine.Completer().SuggestTags(parsed, qn.Parent().ID, qn.Axis, prefix, 10)
					} else {
						cands = engine.Completer().SuggestTagsNaive(prefix, 10)
					}
					for rank, cand := range cands {
						if cand.Text == qn.Tag {
							recip += 1 / float64(rank+1)
							break
						}
					}
				}
			}
			mrr = recip / float64(n)
		}
		b.ReportMetric(mrr, "MRR")
	}
	b.Run("position-aware", func(b *testing.B) { runQuality(b, true) })
	b.Run("naive", func(b *testing.B) { runQuality(b, false) })
}

// BenchmarkE7Ranking measures scoring throughput over a value query's
// matches (experiment E7; the quality table comes from lotusx-bench).
func BenchmarkE7Ranking(b *testing.B) {
	setup(b)
	engine := engines[dataset.DBLP]
	q := twig.MustParse(`//inproceedings[title contains "xml"]`)
	res, err := join.Run(engine.Index(), q, join.TwigStack, join.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Ranker().Rank(q, res.Matches, 10)
	}
}

// BenchmarkE8Ordered measures order-constraint overhead (experiment E8).
func BenchmarkE8Ordered(b *testing.B) {
	setup(b)
	for _, q := range bench.Workload() {
		if !q.Ordered {
			continue
		}
		ordered := twig.MustParse(q.Text)
		unordered := ordered.Clone()
		unordered.Order = nil
		if err := unordered.Normalize(); err != nil {
			b.Fatal(err)
		}
		ix := engines[q.Kind].Index()
		b.Run(q.ID+"/ordered", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := join.Run(ix, ordered, join.TwigStack, join.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.ID+"/unordered", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := join.Run(ix, unordered, join.TwigStack, join.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Rewrite measures recovery of a broken query through
// penalty-ordered relaxation (experiment E9).
func BenchmarkE9Rewrite(b *testing.B) {
	setup(b)
	engine := engines[dataset.DBLP]
	q := twig.MustParse(`//article/autor`) // typo
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := engine.Search(q, core.SearchOptions{Rewrite: true, K: 5})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Answers) == 0 {
			b.Fatal("rewrite recovered nothing")
		}
	}
}

// BenchmarkE10Session measures a full scripted interactive session: root
// suggestion, three growth steps with candidates, value completion, search
// (experiment E10).
func BenchmarkE10Session(b *testing.B) {
	setup(b)
	engine := engines[dataset.XMark]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := engine.NewSession()
		if _, err := s.SuggestTags(complete.NewRoot, twig.Descendant, "op", 8); err != nil {
			b.Fatal(err)
		}
		root, err := s.Root("open_auction", twig.Descendant)
		if err != nil {
			b.Fatal(err)
		}
		bidder, err := s.AddNode(root, twig.Child, "bidder")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SuggestTags(bidder, twig.Child, "in", 8); err != nil {
			b.Fatal(err)
		}
		if _, err := s.AddNode(bidder, twig.Child, "increase"); err != nil {
			b.Fatal(err)
		}
		current, err := s.AddNode(root, twig.Child, "current")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.SuggestValues(current, "1", 8); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Run(core.SearchOptions{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11Scalability measures index build across scales (experiment
// E11; the full sweep table comes from lotusx-bench).
func BenchmarkE11Scalability(b *testing.B) {
	for _, scale := range []int{1, 2} {
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			var buf bytes.Buffer
			if err := dataset.Generate(dataset.DBLP, scale, 42, &buf); err != nil {
				b.Fatal(err)
			}
			src := buf.Bytes()
			b.SetBytes(int64(len(src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := doc.FromReader("dblp", bytes.NewReader(src))
				if err != nil {
					b.Fatal(err)
				}
				core.FromDocument(d)
			}
		})
	}
}

// BenchmarkA1Pushdown compares predicate pushdown against post-filtering
// (ablation A1) on the same query.
func BenchmarkA1Pushdown(b *testing.B) {
	setup(b)
	engine := engines[dataset.DBLP]
	withPred := twig.MustParse(`//inproceedings[title contains "xml"][year]`)
	noPred := withPred.Clone()
	for _, n := range noPred.Nodes() {
		n.Pred = twig.Pred{}
	}
	if err := noPred.Normalize(); err != nil {
		b.Fatal(err)
	}
	b.Run("pushdown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := join.Run(engine.Index(), withPred, join.TwigStack, join.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("structure-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := join.Run(engine.Index(), noPred, join.TwigStack, join.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkA2Minimization compares a redundant twig against its minimized
// form (ablation A2).
func BenchmarkA2Minimization(b *testing.B) {
	setup(b)
	engine := engines[dataset.DBLP]
	raw := twig.MustParse(`//article[author][author]/title`)
	minimized := raw.Minimize()
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := join.Run(engine.Index(), raw, join.TwigStack, join.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("minimized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := join.Run(engine.Index(), minimized, join.TwigStack, join.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSuite runs the printed experiment suite once per iteration — the
// exact tables EXPERIMENTS.md records — against a discard writer.
func BenchmarkSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.NewRunner(bench.Config{Scale: benchScale, Seed: 42, Out: io.Discard})
		if err != nil {
			b.Fatal(err)
		}
		if err := r.RunAll(); err != nil {
			b.Fatal(err)
		}
	}
}
