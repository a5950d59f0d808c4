package main

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// -compare: two sets of runs, per workload and end-to-end metric the change
// of the median against the bound BENCHMARK.json fixes.  A metric whose
// run-to-run spread on either side is wider than its bound is reported as
// unresolved, not as unchanged.

// extraBounds are the bounds of the end-to-end metrics BENCHMARK.json cannot
// list: the driver wants every listed metric non-zero on every workload, and
// ingest_done_p50_ms exists on one workload while failed_share is always 0.
// An absolute bound is a difference, not a share of the baseline.
var extraBounds = []bounded{
	{contractMetric{Name: "ingest_done_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2}, false},
	{contractMetric{Name: "failed_share", Unit: "ratio", Better: "lower", Bound: 0.001}, true},
}

// bounded is a metric with its regression bound.
type bounded struct {
	contractMetric
	absolute bool
}

// medianAndSpread summarises one metric over a set of runs: the median, and
// the distance between the first and third quartile as a share of it (0 for
// a single run).  The quartiles are those of Python's statistics.quantiles(
// vals, n=4), which the driver judges a benchmark's steadiness by.
func medianAndSpread(vals []float64) (median, spread float64) {
	s := samples{v: vals}
	median = s.median() // sorts
	n := len(vals)
	if n < 2 {
		return median, 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s.v[j-1]*(4-delta) + s.v[j]*delta) / 4
	}
	return median, ratio(quartile(3)-quartile(1), median)
}

func compareFiles(w io.Writer, c *contract, pathA, pathB string) error {
	a, err := readRecords(pathA)
	if err != nil {
		return err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return err
	}
	collect := func(recs []*record) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range recs {
			if r.Traced {
				continue // end-to-end metrics are measured with tracing off
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, v := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], v.Value)
			}
		}
		return out
	}
	setA, setB := collect(a), collect(b)
	var names []string
	for name := range setA {
		if setB[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("%s and %s share no untraced workload", pathA, pathB)
	}

	var metrics []bounded
	for _, m := range c.EndToEnd {
		metrics = append(metrics, bounded{m, false})
	}
	metrics = append(metrics, extraBounds...)

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\ta (n)\tb (n)\tchange\tbound\tspread a/b\tverdict")
	for _, wl := range names {
		for _, m := range metrics {
			va, vb := setA[wl][m.Name], setB[wl][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, sa := medianAndSpread(va)
			mb, sb := medianAndSpread(vb)
			// worse is how far b is on the wrong side of a.
			worse := mb - ma
			if m.Better == "higher" {
				worse = -worse
			}
			change := fmt.Sprintf("%+.4f", mb-ma)
			if !m.absolute {
				worse = ratio(worse, ma)
				change = fmt.Sprintf("%+.1f%%", 100*ratio(mb-ma, ma))
			}
			verdict := "ok"
			switch {
			case !m.absolute && (sa > m.Bound || sb > m.Bound):
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "WORSE"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f (%d)\t%.4f (%d)\t%s\t%g\t%.1f%%/%.1f%%\t%s\n",
				wl, m.Name, ma, len(va), mb, len(vb), change, m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return tw.Flush()
}
