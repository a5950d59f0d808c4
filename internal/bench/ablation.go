package bench

import (
	"fmt"
	"strings"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/join"
	"lotusx/internal/rewrite"
	"lotusx/internal/twig"
)

// A1Pushdown ablates the value-predicate pushdown design decision: the
// engine materializes predicate-filtered streams below the joins; the
// ablated variant evaluates the structure-only twig and post-filters
// matches.  DESIGN.md §4 calls the pushdown out; this quantifies it.
func (r *Runner) A1Pushdown() error {
	queries := []Query{
		{ID: "Q3", Kind: dataset.DBLP, Text: `//article[author = "wei lu"]/title`},
		{ID: "Q5", Kind: dataset.XMark, Text: `//item[description//text contains "vintage"]/name`},
		{ID: "QA", Kind: dataset.DBLP, Text: `//inproceedings[title contains "xml"][year]`},
	}
	tw := r.table()
	fmt.Fprintln(tw, "query\tmatches\tpushdown ms\tpost-filter ms\tspeedup\tpost-filter candidates")
	for _, q := range queries {
		parsed := mustParse(q.Text)
		ix := r.engines[q.Kind].Index()

		start := time.Now()
		pushed, err := join.Run(ix, parsed, join.TwigStack, join.Options{})
		if err != nil {
			return err
		}
		pushedTime := time.Since(start)

		// Ablation: strip predicates, evaluate, post-filter.
		stripped := parsed.Clone()
		for _, n := range stripped.Nodes() {
			n.Pred = twig.Pred{}
		}
		if err := stripped.Normalize(); err != nil {
			return err
		}
		start = time.Now()
		raw, err := join.Run(ix, stripped, join.TwigStack, join.Options{})
		if err != nil {
			return err
		}
		kept := postFilter(ix.Document(), parsed, raw.Matches)
		postTime := time.Since(start)

		if len(kept) != len(pushed.Matches) {
			return fmt.Errorf("A1 %s: post-filter %d != pushdown %d", q.ID, len(kept), len(pushed.Matches))
		}
		speedup := "-"
		if pushedTime > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(postTime)/float64(pushedTime))
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%d\n",
			q.ID, len(pushed.Matches), ms(pushedTime), ms(postTime), speedup, len(raw.Matches))
	}
	return tw.Flush()
}

// postFilter applies q's value predicates to structure-only matches.
func postFilter(d *doc.Document, q *twig.Query, matches []join.Match) []join.Match {
	var kept []join.Match
	for _, m := range matches {
		ok := true
		for _, qn := range q.Nodes() {
			switch qn.Pred.Op {
			case twig.Eq:
				if !strings.EqualFold(strings.TrimSpace(d.Value(m[qn.ID])), strings.TrimSpace(qn.Pred.Value)) {
					ok = false
				}
			case twig.Contains:
				if !containsAllTokens(d.Value(m[qn.ID]), qn.Pred.Value) {
					ok = false
				}
			}
			if !ok {
				break
			}
		}
		if ok {
			kept = append(kept, m)
		}
	}
	return kept
}

func containsAllTokens(value, query string) bool {
	have := make(map[string]struct{})
	for _, tok := range tokenizeLower(value) {
		have[tok] = struct{}{}
	}
	for _, tok := range tokenizeLower(query) {
		if _, ok := have[tok]; !ok {
			return false
		}
	}
	return true
}

func tokenizeLower(s string) []string {
	return strings.FieldsFunc(strings.ToLower(s), func(r rune) bool {
		return !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r >= 0x80)
	})
}

// A2Minimization ablates tree pattern minimization on GUI-style redundant
// queries.
func (r *Runner) A2Minimization() error {
	queries := []Query{
		{ID: "R1", Kind: dataset.DBLP, Text: `//article[author][author]/title`},
		{ID: "R2", Kind: dataset.DBLP, Text: `//article[author][author = "wei lu"][year][year]/title`},
		{ID: "R3", Kind: dataset.TreeBank, Text: `//S[NP][.//NP][VP]`},
	}
	tw := r.table()
	fmt.Fprintln(tw, "query\tnodes\tminimized nodes\traw ms\tminimized ms\tanswers")
	for _, q := range queries {
		parsed := mustParse(q.Text)
		minimized := parsed.Minimize()
		ix := r.engines[q.Kind].Index()

		start := time.Now()
		raw, err := join.Run(ix, parsed, join.TwigStack, join.Options{})
		if err != nil {
			return err
		}
		rawTime := time.Since(start)
		start = time.Now()
		min, err := join.Run(ix, minimized, join.TwigStack, join.Options{})
		if err != nil {
			return err
		}
		minTime := time.Since(start)

		a := len(raw.OutputNodes(parsed))
		b := len(min.OutputNodes(minimized))
		if a != b {
			return fmt.Errorf("A2 %s: answers changed %d -> %d", q.ID, a, b)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%d\n",
			q.ID, parsed.Len(), minimized.Len(), ms(rawTime), ms(minTime), a)
	}
	return tw.Flush()
}

// A3PenaltyModel ablates the rewrite penalty model: the default
// rule-specific penalties against a uniform model, measured by how many
// rewrites are evaluated before the first answers appear.
func (r *Runner) A3PenaltyModel() error {
	broken := []Query{
		{ID: "B1", Kind: dataset.DBLP, Text: `//article/autor`},
		{ID: "B2", Kind: dataset.DBLP, Text: `//article[yer]/title`},
		{ID: "B3", Kind: dataset.XMark, Text: `//open_auction/bider/increase`},
	}
	uniform := rewrite.Penalties{}
	for rule := range rewrite.DefaultPenalties() {
		uniform[rule] = 1.0
	}

	tw := r.table()
	fmt.Fprintln(tw, "query\tdefault: tried\tdefault: ms\tuniform: tried\tuniform: ms")
	for _, b := range broken {
		engine := r.engines[b.Kind]
		q := mustParse(b.Text)

		triedDef, elDef, err := r.rewriteUntilRecovery(engine, q, nil)
		if err != nil {
			return err
		}
		triedUni, elUni, err := r.rewriteUntilRecovery(engine, q, uniform)
		if err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\n", b.ID, triedDef, ms(elDef), triedUni, ms(elUni))
	}
	return tw.Flush()
}

// rewriteUntilRecovery evaluates rewrites in penalty order (under the given
// penalty model; nil = default) until one yields answers, returning how many
// were tried.
func (r *Runner) rewriteUntilRecovery(engine *core.Engine, q *twig.Query, p rewrite.Penalties) (int, time.Duration, error) {
	rw := rewrite.New(engine.Index(), engine.Guide())
	if p != nil {
		rw.SetPenalties(p)
	}
	start := time.Now()
	tried := 0
	for _, cand := range rw.Enumerate(q, 3.0, 64) {
		tried++
		res, err := join.Run(engine.Index(), cand.Query, join.TwigStack, join.Options{MaxMatches: 1})
		if err != nil {
			return tried, time.Since(start), err
		}
		if len(res.Matches) > 0 {
			return tried, time.Since(start), nil
		}
	}
	return tried, time.Since(start), nil
}

// E11Scalability sweeps the dataset scale factor: index build and the
// heaviest workload queries must grow roughly linearly for the interactive
// claims to survive larger corpora.
func (r *Runner) E11Scalability() error {
	tw := r.table()
	fmt.Fprintln(tw, "scale\tdblp nodes\tbuild ms\tQ2 ms\tQ9 ms\tcomplete µs")
	for _, scale := range []int{1, 2, 4} {
		d, err := dataset.Build(dataset.DBLP, scale, r.cfg.Seed)
		if err != nil {
			return err
		}
		start := time.Now()
		engine := core.FromDocument(d)
		buildTime := time.Since(start)

		q2 := mustParse(`//inproceedings[author][year]/title`)
		start = time.Now()
		if _, err := join.Run(engine.Index(), q2, join.TwigStack, join.Options{}); err != nil {
			return err
		}
		q2Time := time.Since(start)

		td, err := dataset.Build(dataset.TreeBank, scale, r.cfg.Seed)
		if err != nil {
			return err
		}
		tEngine := core.FromDocument(td)
		q9 := mustParse(`//S//NP//NN`)
		start = time.Now()
		if _, err := join.Run(tEngine.Index(), q9, join.TwigStack, join.Options{}); err != nil {
			return err
		}
		q9Time := time.Since(start)

		ctx := mustParse(`//inproceedings`)
		const reps = 200
		start = time.Now()
		for i := 0; i < reps; i++ {
			engine.Completer().SuggestTags(ctx, 0, twig.Child, "a", 10)
		}
		completeUS := float64(time.Since(start).Microseconds()) / reps

		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%s\t%.1f\n",
			scale, d.Len(), ms(buildTime), ms(q2Time), ms(q9Time), completeUS)
	}
	return tw.Flush()
}
