package bench

import (
	"fmt"
	"time"

	"lotusx/internal/dataset"
	"lotusx/internal/join"
	"lotusx/internal/twig"
)

// E1IndexBuild reproduces the feasibility claim: LotusX ingests hierarchical
// XML into interactive-search indexes at acceptable cost.
func (r *Runner) E1IndexBuild() error {
	tw := r.table()
	fmt.Fprintln(tw, "dataset\tXML KB\tnodes\ttags\tguide paths\tparse ms\tindex ms\tguide ms")
	for _, kind := range dataset.Kinds {
		in, e := r.inputs[kind], r.engines[kind]
		built := e.BuildTiming()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\t%s\t%s\n",
			kind, in.xmlBytes/1024, e.Document().Len(), e.Document().Tags().Len(), e.Guide().Size(),
			ms(in.parse), ms(built.Index), ms(built.Guide))
	}
	return tw.Flush()
}

// E2TwigAlgorithms reproduces the efficient-evaluation claim: the holistic
// join dominates the decomposed baselines across the workload.
func (r *Runner) E2TwigAlgorithms() error {
	tw := r.table()
	head := "query\tdataset\tmatches"
	for _, alg := range join.Algorithms {
		head += "\t" + string(alg)
	}
	fmt.Fprintln(tw, head)
	for _, q := range Workload() {
		parsed := mustParse(q.Text)
		row := fmt.Sprintf("%s\t%s", q.ID, q.Kind)
		matches := -1
		for _, alg := range join.Algorithms {
			elapsed, res, err := r.timeJoin(q, parsed, alg)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", q.ID, alg, err)
			}
			if matches == -1 {
				matches = len(res.Matches)
				row += fmt.Sprintf("\t%d", matches)
			} else if len(res.Matches) != matches {
				return fmt.Errorf("%s: %s returned %d matches, oracle %d",
					q.ID, alg, len(res.Matches), matches)
			}
			row += "\t" + ms(elapsed)
		}
		fmt.Fprintln(tw, row)
	}
	return tw.Flush()
}

func (r *Runner) timeJoin(q Query, parsed *twig.Query, alg join.Algorithm) (time.Duration, *join.Result, error) {
	ix := r.engines[q.Kind].Index()
	start := time.Now()
	res, err := join.Run(ix, parsed, alg, join.Options{})
	return time.Since(start), res, err
}

// E3Intermediate reproduces TwigStack's headline property: far fewer
// useless intermediate path solutions than per-path evaluation.
func (r *Runner) E3Intermediate() error {
	tw := r.table()
	fmt.Fprintln(tw, "query\tdataset\tmatches\tpathstack sols\ttwigstack sols\ttjfast sols\tps/ts ratio")
	for _, q := range Workload() {
		parsed := mustParse(q.Text)
		_, ps, err := r.timeJoin(q, parsed, join.PathStack)
		if err != nil {
			return err
		}
		_, ts, err := r.timeJoin(q, parsed, join.TwigStack)
		if err != nil {
			return err
		}
		_, tj, err := r.timeJoin(q, parsed, join.TJFast)
		if err != nil {
			return err
		}
		ratio := "-"
		if ts.Stats.PathSolutions > 0 {
			ratio = fmt.Sprintf("%.2f", float64(ps.Stats.PathSolutions)/float64(ts.Stats.PathSolutions))
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%s\n",
			q.ID, q.Kind, len(ts.Matches),
			ps.Stats.PathSolutions, ts.Stats.PathSolutions, tj.Stats.PathSolutions, ratio)
	}
	return tw.Flush()
}

// E4ParentChild reproduces the complex-twig claim on parent-child-dominated
// queries: plain TwigStack pushes every ancestor-descendant candidate and
// filters P-C during expansion, while the look-ahead variant
// (twigstack-la, our TwigStackList rendition) prunes before pushing.
func (r *Runner) E4ParentChild() error {
	tw := r.table()
	fmt.Fprintln(tw, "query\tdataset\tmatches\tpushed\tpushed (LA)\tms\tms (LA)")
	for _, q := range Workload() {
		if !q.PCHeavy {
			continue
		}
		parsed := mustParse(q.Text)
		elapsed, ts, err := r.timeJoin(q, parsed, join.TwigStack)
		if err != nil {
			return err
		}
		elapsedLA, la, err := r.timeJoin(q, parsed, join.TwigStackLA)
		if err != nil {
			return err
		}
		if len(la.Matches) != len(ts.Matches) {
			return fmt.Errorf("E4 %s: la %d matches vs %d", q.ID, len(la.Matches), len(ts.Matches))
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%s\t%s\n",
			q.ID, q.Kind, len(ts.Matches),
			ts.Stats.ElementsPushed, la.Stats.ElementsPushed,
			ms(elapsed), ms(elapsedLA))
	}
	return tw.Flush()
}

// E8Ordered reproduces the order-sensitive-query claim: `a << b`
// constraints are honoured at modest overhead over the unordered twig.
func (r *Runner) E8Ordered() error {
	tw := r.table()
	fmt.Fprintln(tw, "query\tdataset\tordered matches\tunordered matches\tordered ms\tunordered ms\toverhead")
	for _, q := range Workload() {
		if !q.Ordered {
			continue
		}
		ordered := mustParse(q.Text)
		unordered := ordered.Clone()
		unordered.Order = nil
		if err := unordered.Normalize(); err != nil {
			return err
		}
		elOrd, resOrd, err := r.timeJoin(q, ordered, join.TwigStack)
		if err != nil {
			return err
		}
		elUn, resUn, err := r.timeJoin(q, unordered, join.TwigStack)
		if err != nil {
			return err
		}
		overhead := "-"
		if elUn > 0 {
			overhead = fmt.Sprintf("%.2fx", float64(elOrd)/float64(elUn))
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%s\t%s\n",
			q.ID, q.Kind, len(resOrd.Matches), len(resUn.Matches),
			ms(elOrd), ms(elUn), overhead)
	}
	return tw.Flush()
}
