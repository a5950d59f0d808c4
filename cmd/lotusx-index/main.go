// Command lotusx-index parses an XML file, builds the LotusX engine over it
// and persists the result for fast reopening by lotusx-query and
// lotusx-server.
//
//	lotusx-index -in dblp.xml -out dblp.ltx
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"lotusx/internal/source"
)

func main() {
	in := flag.String("in", "", "input XML file (required)")
	out := flag.String("out", "", "output index file (required)")
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	engine, err := source.Source{In: *in}.Engine()
	if err != nil {
		fatal(err)
	}
	built := time.Since(start)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := engine.Save(f); err != nil {
		fatal(err)
	}

	st := engine.Stats()
	fmt.Printf("indexed %s: %d nodes, %d tags, %d guide paths in %v -> %s\n",
		st.Document, st.Nodes, st.Tags, st.GuidePaths, built.Round(time.Millisecond), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lotusx-index:", err)
	os.Exit(1)
}
