// Command lotusx-repl is the terminal version of the interactive demo: the
// same session workflow as the web GUI (grow a twig with position-aware
// candidates, run, read ranked highlighted answers), driven from stdin.
//
//	lotusx-repl -in dblp.xml
//	lotusx-repl -dataset xmark
//	lotusx-repl -dataset xmark -shards 4   # sharded corpus with fan-out
package main

import (
	"flag"
	"fmt"
	"os"

	"lotusx/internal/repl"
	"lotusx/internal/source"
)

func main() {
	var src source.Source
	flag.StringVar(&src.In, "in", "", "input XML file")
	flag.StringVar(&src.Index, "index", "", "persisted index file")
	flag.StringVar(&src.Kind, "dataset", "", "synthetic dataset: dblp, xmark or treebank")
	flag.IntVar(&src.Scale, "scale", 1, "synthetic dataset scale")
	flag.Int64Var(&src.Seed, "seed", 42, "synthetic dataset seed")
	shards := flag.Int("shards", 1, "split the input into N shards and fan queries out")
	flag.Parse()

	backend, err := src.Backend(*shards)
	if err != nil {
		fatal(err)
	}
	if err := repl.RunBackend(backend, os.Stdin, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lotusx-repl:", err)
	os.Exit(1)
}
