// Command lotusx-query evaluates a twig query (XPath subset) against an XML
// file or a persisted index.
//
//	lotusx-query -in dblp.xml '//article[author = "jiaheng lu"]/title'
//	lotusx-query -index dblp.ltx -k 5 -rewrite '//article/autor'
//	lotusx-query -in dblp.xml -alg pathstack -explain '//book[title]'
//	lotusx-query -in dblp.xml -shards 4 '//article/title'   # sharded fan-out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"lotusx/internal/core"
	"lotusx/internal/join"
	"lotusx/internal/source"
	"lotusx/internal/twig"
)

func main() {
	var src source.Source
	flag.StringVar(&src.In, "in", "", "input XML file")
	flag.StringVar(&src.Index, "index", "", "persisted index file (alternative to -in)")
	k := flag.Int("k", 10, "answers wanted")
	alg := flag.String("alg", "twigstack", "algorithm: nestedloop, structural, pathstack, twigstack")
	doRewrite := flag.Bool("rewrite", false, "relax the query when answers are scarce")
	explain := flag.Bool("explain", false, "print score breakdowns and join statistics")
	plan := flag.Bool("plan", false, "print the planner's view (estimates, auto choice) before running")
	xquery := flag.Bool("xquery", false, "print the equivalent XQuery and exit")
	shards := flag.Int("shards", 1, "split the input into N shards and fan the query out")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lotusx-query [-in file.xml | -index file.ltx] [flags] QUERY")
		os.Exit(2)
	}
	queryText := flag.Arg(0)

	if *xquery {
		q, err := twig.Parse(queryText)
		if err != nil {
			fatal(err)
		}
		fmt.Println(q.ToXQuery())
		return
	}

	backend, err := src.Backend(*shards)
	if err != nil {
		fatal(err)
	}

	q, err := twig.Parse(queryText)
	if err != nil {
		fatal(err)
	}
	if *plan {
		// The planner's view is per document; for a corpus, show the first
		// shard (every shard sees the same query shape).
		engines := backend.Engines()
		if len(engines) > 1 {
			fmt.Printf("plan (shard %s of %d):\n", engines[0].Name, len(engines))
		}
		fmt.Print(join.Explain(engines[0].Engine.Index(), q))
	}

	res, err := backend.SearchHits(context.Background(), q, core.SearchOptions{
		K:          *k,
		Algorithm:  join.Algorithm(*alg),
		Rewrite:    *doRewrite,
		SnippetMax: 400,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("%d answers (%d exact, %d rewrites tried) in %v",
		len(res.Hits), res.Exact, res.RewritesTried, res.Elapsed)
	if res.Shards > 1 {
		fmt.Printf(" across %d shards", res.Shards)
	}
	fmt.Println()
	for i, h := range res.Hits {
		fmt.Printf("\n#%d  %s  score=%.3f", i+1, h.Path, h.Score)
		if h.Shard != "" {
			fmt.Printf("  [shard %s]", h.Shard)
		}
		if h.Rewrite != "" {
			fmt.Printf("  [via %s, penalty %.1f]", h.Rewrite, h.Penalty)
		}
		fmt.Println()
		if *explain {
			fmt.Printf("    content=%.3f tightness=%.3f idf=%.3f\n",
				h.Scored.Content, h.Scored.Tightness, h.Scored.IDF)
		}
		fmt.Print(indent(h.Snippet, "    "))
	}
	if *explain {
		fmt.Printf("\njoin stats: scanned=%d pathSolutions=%d edgePairs=%d matches=%d\n",
			res.Stats.ElementsScanned, res.Stats.PathSolutions,
			res.Stats.EdgePairs, res.Stats.MatchesEnumerated)
	}
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return prefix + strings.Join(lines, "\n"+prefix) + "\n"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lotusx-query:", err)
	os.Exit(1)
}
