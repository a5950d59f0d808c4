package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/dataset"
	"lotusx/internal/join"
	"lotusx/internal/twig"
)

// E7Ranking reproduces the effective-ranking claim.  Ground truth is graded
// on the matched value alone — 3 for whole-value equality with the query
// term, 2 for a prefix, 1 for containing every token — while the LotusX
// score additionally weighs structure and rarity; the baselines are document
// order and a seeded random shuffle.  nDCG@10 and P@5 are averaged over
// value queries on the dblp dataset.
func (r *Runner) E7Ranking() error {
	engine := r.engines[dataset.DBLP]
	d := engine.Document()
	rng := r.rng(7)

	// Value queries: titles containing single frequent words.
	terms := []string{"xml", "twig", "query", "index", "ranking", "adaptive"}
	type agg struct {
		ndcg, p5 float64
		n        int
	}
	var lotus, docOrder, random agg

	for _, term := range terms {
		q := mustParse(fmt.Sprintf(`//inproceedings[title contains %q]`, term))
		res, err := join.Run(engine.Index(), q, join.TwigStack, join.Options{})
		if err != nil {
			return err
		}
		if len(res.Matches) < 5 {
			continue
		}
		// Relevance judgment per distinct answer node.
		titleID := 1 // preorder: inproceedings=0, title=1
		rel := func(m join.Match) float64 {
			v := strings.ToLower(d.Value(m[titleID]))
			switch {
			case v == term:
				return 3
			case strings.HasPrefix(v, term):
				return 2
			default:
				return 1
			}
		}

		// LotusX ranking.
		scored := engine.Ranker().Rank(q, res.Matches, 0)
		var lotusRel []float64
		for _, s := range scored {
			lotusRel = append(lotusRel, rel(s.Match))
		}
		// Document order (matches are already doc-ordered).
		var docRel []float64
		for _, m := range res.Matches {
			docRel = append(docRel, rel(m))
		}
		// Random order.
		perm := rng.Perm(len(res.Matches))
		var rndRel []float64
		for _, i := range perm {
			rndRel = append(rndRel, rel(res.Matches[i]))
		}

		lotus.ndcg += ndcg(lotusRel, 10)
		lotus.p5 += precisionAt(lotusRel, 5, 2)
		lotus.n++
		docOrder.ndcg += ndcg(docRel, 10)
		docOrder.p5 += precisionAt(docRel, 5, 2)
		docOrder.n++
		random.ndcg += ndcg(rndRel, 10)
		random.p5 += precisionAt(rndRel, 5, 2)
		random.n++
	}

	tw := r.table()
	fmt.Fprintln(tw, "ranking\tnDCG@10\tP@5 (rel >= 2)\tqueries")
	for _, row := range []struct {
		name string
		a    agg
	}{{"lotusx", lotus}, {"doc-order", docOrder}, {"random", random}} {
		if row.a.n == 0 {
			fmt.Fprintf(tw, "%s\t-\t-\t0\n", row.name)
			continue
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%d\n",
			row.name, row.a.ndcg/float64(row.a.n), row.a.p5/float64(row.a.n), row.a.n)
	}
	return tw.Flush()
}

// ndcg computes nDCG@k for a relevance sequence in ranked order.
func ndcg(rels []float64, k int) float64 {
	dcg := dcgAt(rels, k)
	ideal := append([]float64(nil), rels...)
	sort.Sort(sort.Reverse(sort.Float64Slice(ideal)))
	idcg := dcgAt(ideal, k)
	if idcg == 0 {
		return 0
	}
	return dcg / idcg
}

func dcgAt(rels []float64, k int) float64 {
	var sum float64
	for i := 0; i < len(rels) && i < k; i++ {
		sum += (math.Pow(2, rels[i]) - 1) / math.Log2(float64(i)+2)
	}
	return sum
}

// precisionAt computes the fraction of the top k with relevance >= threshold.
func precisionAt(rels []float64, k int, threshold float64) float64 {
	if len(rels) < k {
		k = len(rels)
	}
	if k == 0 {
		return 0
	}
	hits := 0
	for _, rel := range rels[:k] {
		if rel >= threshold {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// E9Rewrite reproduces the query-rewriting claim: queries broken by typos,
// wrong axes or over-tight values recover answers through penalty-ordered
// relaxation.
func (r *Runner) E9Rewrite() error {
	rng := r.rng(9)

	type brokenQuery struct {
		id, kindOfBreak string
		kind            dataset.Kind
		text            string
	}
	var broken []brokenQuery
	for _, q := range Workload() {
		if q.Ordered {
			continue
		}
		parsed := mustParse(q.Text)
		// Typo: drop one letter from a random non-root tag.
		if mut, ok := typoMutation(parsed, rng); ok {
			broken = append(broken, brokenQuery{q.ID, "typo", q.Kind, mut})
		}
		// Over-tight axis: force every edge to parent-child.
		if mut, ok := axisMutation(parsed); ok {
			broken = append(broken, brokenQuery{q.ID, "axis", q.Kind, mut})
		}
		// Over-tight value: contains -> eq (whole-value match required).
		if mut, ok := valueMutation(parsed); ok {
			broken = append(broken, brokenQuery{q.ID, "value", q.Kind, mut})
		}
	}

	tw := r.table()
	fmt.Fprintln(tw, "query\tbreak\texact answers\trecovered\trewrites tried\tfirst penalty\ttime ms")
	recoveredCount, total := 0, 0
	for _, b := range broken {
		engine := r.engines[b.kind]
		q, err := twig.Parse(b.text)
		if err != nil {
			continue // a mutation can produce an invalid query; skip it
		}
		exact, err := join.Run(engine.Index(), q, join.TwigStack, join.Options{MaxMatches: 1})
		if err != nil {
			return err
		}
		if len(exact.Matches) > 0 {
			continue // the mutation did not actually break the query
		}
		total++
		start := time.Now()
		res, err := engine.Search(q, core.SearchOptions{Rewrite: true, K: 5})
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		recovered := len(res.Answers) > 0
		if recovered {
			recoveredCount++
		}
		penalty := "-"
		if recovered && res.Answers[0].Rewrite != nil {
			penalty = fmt.Sprintf("%.1f", res.Answers[0].Rewrite.Penalty)
		}
		fmt.Fprintf(tw, "%s\t%s\t0\t%v\t%d\t%s\t%s\n",
			b.id, b.kindOfBreak, recovered, res.RewritesTried, penalty, ms(elapsed))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if total > 0 {
		fmt.Fprintf(r.cfg.Out, "recovery rate: %d/%d (%.0f%%)\n",
			recoveredCount, total, 100*float64(recoveredCount)/float64(total))
	}
	return nil
}

func typoMutation(q *twig.Query, rng *rand.Rand) (string, bool) {
	c := q.Clone()
	nodes := c.Nodes()
	// Pick a node with a tag long enough to maim.
	for attempts := 0; attempts < 10; attempts++ {
		n := nodes[rng.Intn(len(nodes))]
		if n.IsWildcard() || len(n.Tag) < 4 || strings.HasPrefix(n.Tag, "@") {
			continue
		}
		cut := 1 + rng.Intn(len(n.Tag)-2)
		n.Tag = n.Tag[:cut] + n.Tag[cut+1:]
		if err := c.Normalize(); err != nil {
			return "", false
		}
		return c.String(), true
	}
	return "", false
}

func axisMutation(q *twig.Query) (string, bool) {
	c := q.Clone()
	changed := false
	for _, n := range c.Nodes() {
		if n.Parent() != nil && n.Axis == twig.Descendant {
			n.Axis = twig.Child
			changed = true
		}
	}
	if !changed {
		return "", false
	}
	if err := c.Normalize(); err != nil {
		return "", false
	}
	return c.String(), true
}

func valueMutation(q *twig.Query) (string, bool) {
	c := q.Clone()
	changed := false
	for _, n := range c.Nodes() {
		if n.Pred.Op == twig.Contains {
			n.Pred.Op = twig.Eq
			changed = true
		}
	}
	if !changed {
		return "", false
	}
	if err := c.Normalize(); err != nil {
		return "", false
	}
	return c.String(), true
}
