package bench

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/join"
)

// E19 workload: twigs over the generated high-repetition document, plus the
// XMark subset of the standard workload for the low-repetition side.
var compressQueries = []struct{ id, text string }{
	{"C1", `//article/title`},
	{"C2", `//article[author][year]/title`},
	{"C3", `//book[publisher]/author`},
	{"C4", `//dblp//author`},
}

// highRepXML generates a bibliography whose records cycle through six fixed
// templates — repeated subtrees by construction, the shape the DAG substrate
// dedups — with a sprinkle of unique records as residue (every 41st record
// carries a one-off key, like real data's long tail).
func highRepXML(scale int) string {
	records := []string{
		`<article key="a1"><author>Jiaheng Lu</author><author>Ting Chen</author><author>Wei Lu</author><title>Holistic Twig Joins</title><year>2005</year><pages>310</pages><publisher>VLDB</publisher><volume>31</volume><ee>db/vldb05</ee></article>`,
		`<article key="a2"><author>Chunbin Lin</author><author>Jiaheng Lu</author><title>LotusX Position Aware Search</title><year>2012</year><pages>1515</pages><publisher>ICDE</publisher><volume>28</volume><ee>db/icde12</ee></article>`,
		`<article key="a3"><author>Wei Lu</author><author>Tok Wang Ling</author><title>XML Keyword Search</title><year>2011</year><pages>88</pages><publisher>SIGMOD</publisher><volume>40</volume><ee>db/sigmod11</ee></article>`,
		`<book key="b1"><author>Tok Wang Ling</author><author>Ting Chen</author><title>XML Databases</title><year>2008</year><publisher>Springer</publisher><isbn>978</isbn><pages>420</pages></book>`,
		`<book key="b2"><author>Jiaheng Lu</author><author>Chunbin Lin</author><title>Twig Pattern Matching</title><year>2013</year><publisher>Springer</publisher><isbn>979</isbn><pages>365</pages></book>`,
		`<article key="a4"><author>Ting Chen</author><author>Jiaheng Lu</author><title>Ordered Twig Queries</title><year>2006</year><pages>204</pages><publisher>VLDB</publisher><volume>32</volume><ee>db/vldb06</ee></article>`,
	}
	var b strings.Builder
	b.WriteString("<dblp>")
	n := 1200 * scale
	for i := 0; i < n; i++ {
		if i%97 == 0 {
			fmt.Fprintf(&b, `<article key="u%d"><author>Author %d</author><title>One Off %d</title><year>19%02d</year></article>`,
				i, i, i, i%100)
			continue
		}
		b.WriteString(records[i%len(records)])
	}
	b.WriteString("</dblp>")
	return b.String()
}

// E19IndexCompression quantifies the DAG-compressed index substrate: on
// high-repetition data the index stores each distinct subtree shape once
// (target: >= 3x smaller resident substrate) and every join algorithm
// evaluates once per shape, expanding matches per occurrence; on
// low-repetition data the build heuristic falls back to the raw substrate,
// so query latency cannot regress.  Every query runs on both substrates
// under all six algorithms and the experiment fails on any divergence.
func (r *Runner) E19IndexCompression() error {
	highDoc, err := doc.FromString("highrep", highRepXML(r.cfg.Scale))
	if err != nil {
		return err
	}
	lowDoc := r.Engine(dataset.XMark).Document()

	// --- Table 1: substrate size and build cost, raw vs compressed. ---
	type variant struct {
		name string
		d    *doc.Document
		raw  *index.Index
		comp *index.Index
	}
	variants := []*variant{
		{name: "high-repetition", d: highDoc},
		{name: "xmark (low-rep)", d: lowDoc},
	}
	tw := r.table()
	fmt.Fprintln(tw, "dataset\tnodes\tcompressed\tshapes\tinstances\traw KB\tresident KB\tratio\traw build ms\tcomp build ms")
	for _, v := range variants {
		start := time.Now()
		v.raw = index.Build(v.d)
		rawBuild := time.Since(start)
		start = time.Now()
		v.comp = index.BuildCompressed(v.d)
		compBuild := time.Since(start)

		st := v.comp.CompressionStats()
		rst := v.raw.CompressionStats()
		state := "no (fallback)"
		if st.Compressed {
			state = "yes"
		}
		ratio := float64(rst.ResidentBytes) / float64(st.ResidentBytes)
		fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%d\t%d\t%d\t%.2f\t%s\t%s\n",
			v.name, st.Nodes, state, st.Shapes, st.Instances,
			rst.ResidentBytes/1024, st.ResidentBytes/1024, ratio,
			ms(rawBuild), ms(compBuild))
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	// The headline claims, enforced so a regression fails the bench: the
	// repetitive document must compress >= 3x, and XMark's long-tail values
	// must trip the fallback (a compressed substrate there would mean the
	// heuristic stopped protecting low-repetition data).
	high, low := variants[0], variants[1]
	if high.comp.Compressed() == nil {
		return fmt.Errorf("E19: high-repetition document did not compress")
	}
	if ratio := float64(high.raw.CompressionStats().ResidentBytes) / float64(high.comp.CompressionStats().ResidentBytes); ratio < 3 {
		return fmt.Errorf("E19: compression ratio %.2f on high-repetition data, want >= 3", ratio)
	}
	if low.comp.Compressed() != nil {
		return fmt.Errorf("E19: low-repetition XMark document unexpectedly compressed")
	}

	// --- Table 2: per-query equivalence and latency on both substrates. ---
	// "algs" counts the algorithms whose matches were verified byte-identical
	// between the substrates (all six, or the experiment errors).
	tw = r.table()
	fmt.Fprintln(tw, "query\tdataset\tmatches\talgs\traw ms\tcomp ms\tspeedup")
	run := func(v *variant, id, text string) error {
		parsed := mustParse(text)
		matches := -1
		for _, alg := range join.Algorithms {
			rres, err := join.Run(v.raw, parsed, alg, join.Options{})
			if err != nil {
				return fmt.Errorf("E19 %s/%s raw: %w", id, alg, err)
			}
			cres, err := join.Run(v.comp, parsed, alg, join.Options{})
			if err != nil {
				return fmt.Errorf("E19 %s/%s compressed: %w", id, alg, err)
			}
			if !reflect.DeepEqual(rres.Matches, cres.Matches) {
				return fmt.Errorf("E19 %s/%s: compressed matches diverge from raw (%d vs %d)",
					id, alg, len(cres.Matches), len(rres.Matches))
			}
			matches = len(rres.Matches)
		}
		const reps = 5
		timeIt := func(ix *index.Index) (time.Duration, error) {
			best := time.Duration(0)
			for i := 0; i < reps; i++ {
				start := time.Now()
				if _, err := join.Run(ix, parsed, join.TwigStack, join.Options{}); err != nil {
					return 0, err
				}
				if el := time.Since(start); best == 0 || el < best {
					best = el
				}
			}
			return best, nil
		}
		rawT, err := timeIt(v.raw)
		if err != nil {
			return err
		}
		compT, err := timeIt(v.comp)
		if err != nil {
			return err
		}
		speedup := "-"
		if compT > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(rawT)/float64(compT))
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\t%s\t%s\n",
			id, v.name, matches, len(join.Algorithms), ms(rawT), ms(compT), speedup)
		return nil
	}
	for _, q := range compressQueries {
		if err := run(high, q.id, q.text); err != nil {
			return err
		}
	}
	for _, q := range Workload() {
		if q.Kind != dataset.XMark {
			continue
		}
		if err := run(low, q.ID, q.Text); err != nil {
			return err
		}
	}
	return tw.Flush()
}
