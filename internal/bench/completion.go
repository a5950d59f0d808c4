package bench

import (
	"fmt"
	"time"

	"lotusx/internal/complete"
	"lotusx/internal/dataset"
	"lotusx/internal/twig"
)

// completionProbe is one simulated keystroke state: the user is growing the
// twig at a known position and has typed a prefix of the intended tag.
type completionProbe struct {
	kind     dataset.Kind
	context  string // partial twig, XPath subset; "" = suggesting the root
	axis     twig.Axis
	intended string // the tag the user is heading for
}

// completionProbes derives probes from the workload queries: every non-root
// query node becomes "user adds this node under its parent's path".
func completionProbes() []completionProbe {
	var probes []completionProbe
	for _, q := range Workload() {
		parsed := mustParse(q.Text)
		for _, qn := range parsed.Nodes() {
			if qn.Parent() == nil || qn.IsWildcard() {
				continue
			}
			probes = append(probes, completionProbe{
				kind:     q.Kind,
				context:  pathText(qn.Parent()),
				axis:     qn.Axis,
				intended: qn.Tag,
			})
		}
	}
	return probes
}

// pathText renders the root-to-n chain as a plain path query.
func pathText(n *twig.Node) string {
	var chain []*twig.Node
	for cur := n; cur != nil; cur = cur.Parent() {
		chain = append(chain, cur)
	}
	text := ""
	for i := len(chain) - 1; i >= 0; i-- {
		text += chain[i].Axis.String() + chain[i].Tag
	}
	return text
}

// E5CompletionLatency reproduces the on-the-fly claim: candidate lists
// arrive within interactive budgets at every prefix length, position-aware
// and naive alike.
func (r *Runner) E5CompletionLatency() error {
	probes := completionProbes()
	tw := r.table()
	fmt.Fprintln(tw, "prefix len\tposition-aware µs\tnaive µs\tprobes")
	const reps = 50
	for plen := 0; plen <= 4; plen++ {
		var aware, naive time.Duration
		n := 0
		for _, p := range probes {
			if len(p.intended) < plen {
				continue
			}
			n++
			prefix := p.intended[:plen]
			engine := r.engines[p.kind]
			q, focus, err := probeQuery(p)
			if err != nil {
				return err
			}
			start := time.Now()
			for i := 0; i < reps; i++ {
				engine.Completer().SuggestTags(q, focus, p.axis, prefix, 10)
			}
			aware += time.Since(start)
			start = time.Now()
			for i := 0; i < reps; i++ {
				engine.Completer().SuggestTagsNaive(prefix, 10)
			}
			naive += time.Since(start)
		}
		if n == 0 {
			continue
		}
		den := float64(n * reps)
		fmt.Fprintf(tw, "%d\t%.1f\t%.1f\t%d\n",
			plen,
			float64(aware.Microseconds())/den,
			float64(naive.Microseconds())/den,
			n)
	}
	return tw.Flush()
}

// probeQuery parses the probe's context and returns (query, focus node ID).
func probeQuery(p completionProbe) (*twig.Query, int, error) {
	if p.context == "" {
		q := twig.NewQuery(twig.Wildcard)
		if err := q.Normalize(); err != nil {
			return nil, 0, err
		}
		return q, complete.NewRoot, nil
	}
	q, err := twig.Parse(p.context)
	if err != nil {
		return nil, 0, err
	}
	return q, q.OutputNode().ID, nil
}

// e6Probes splits the completion probes into those whose intended tag
// occurs at the probe's position in its dataset and those whose tag never
// does there.  The latter have no right answer to rank: the position-aware
// engine is right to leave the tag out, and only a position-blind one
// "finds" it.
func (r *Runner) e6Probes() (kept, dropped []completionProbe, err error) {
	for _, p := range completionProbes() {
		q, focus, err := probeQuery(p)
		if err != nil {
			return nil, nil, err
		}
		if len(r.engines[p.kind].Completer().ExplainTag(q, focus, p.axis, p.intended, 1)) == 0 {
			dropped = append(dropped, p)
		} else {
			kept = append(kept, p)
		}
	}
	return kept, dropped, nil
}

// E6CompletionQuality reproduces the position-aware claim itself: knowing
// the position ranks the intended tag higher than global frequency does.
// It scores the feasible probes only (e6Probes) and reports, per prefix
// length, how many it dropped.
func (r *Runner) E6CompletionQuality() error {
	probes, infeasible, err := r.e6Probes()
	if err != nil {
		return err
	}
	atLeast := func(ps []completionProbe, plen int) int {
		n := 0
		for _, p := range ps {
			if len(p.intended) >= plen {
				n++
			}
		}
		return n
	}
	tw := r.table()
	fmt.Fprintln(tw, "prefix len\taware s@1\taware s@5\taware MRR\tnaive s@1\tnaive s@5\tnaive MRR\tprobes\tdropped")
	for plen := 0; plen <= 2; plen++ {
		var am, nm metrics
		for _, p := range probes {
			if len(p.intended) < plen {
				continue
			}
			prefix := p.intended[:plen]
			engine := r.engines[p.kind]
			q, focus, err := probeQuery(p)
			if err != nil {
				return err
			}
			am.observe(rankOf(p.intended, engine.Completer().SuggestTags(q, focus, p.axis, prefix, 10)))
			nm.observe(rankOf(p.intended, engine.Completer().SuggestTagsNaive(prefix, 10)))
		}
		if am.n == 0 {
			continue
		}
		fmt.Fprintf(tw, "%d\t%.2f\t%.2f\t%.3f\t%.2f\t%.2f\t%.3f\t%d\t%d\n",
			plen, am.successAt1(), am.successAt5(), am.mrr(),
			nm.successAt1(), nm.successAt5(), nm.mrr(), am.n, atLeast(infeasible, plen))
	}
	return tw.Flush()
}

// rankOf returns the 1-based rank of the intended tag among candidates, or
// 0 when absent.
func rankOf(intended string, cands []complete.Candidate) int {
	for i, c := range cands {
		if c.Text == intended {
			return i + 1
		}
	}
	return 0
}

// metrics accumulates success@k and MRR over probes.
type metrics struct {
	n        int
	hit1     int
	hit5     int
	recipSum float64
}

func (m *metrics) observe(rank int) {
	m.n++
	if rank == 1 {
		m.hit1++
	}
	if rank >= 1 && rank <= 5 {
		m.hit5++
	}
	if rank >= 1 {
		m.recipSum += 1 / float64(rank)
	}
}

func (m *metrics) successAt1() float64 { return float64(m.hit1) / float64(m.n) }
func (m *metrics) successAt5() float64 { return float64(m.hit5) / float64(m.n) }
func (m *metrics) mrr() float64        { return m.recipSum / float64(m.n) }
