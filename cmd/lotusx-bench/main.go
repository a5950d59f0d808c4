// Command lotusx-bench runs the experiment suite of internal/bench and
// prints the result tables: E1–E11 and the ablations A1–A3 reproduce the
// demo paper's claims (see DESIGN.md §5); E14 and E17 measure injected
// shard failure, replica failover and hedging.
//
//	lotusx-bench                       # full suite at scale 1
//	lotusx-bench -scale 4              # larger datasets
//	lotusx-bench -exp E2,E3            # a subset
//	lotusx-bench -exp E17 -json-dir .  # also write BENCH_E17.json
package main

import (
	"flag"
	"fmt"
	"os"

	"lotusx/internal/bench"
)

func main() {
	scale := flag.Int("scale", 1, "dataset scale factor")
	seed := flag.Int64("seed", 42, "workload seed")
	exps := flag.String("exp", "", "comma-separated experiments to run (default all), e.g. E2,E5")
	jsonDir := flag.String("json-dir", "",
		"directory receiving machine-readable BENCH_<ID>.json files (empty disables)")
	flag.Parse()

	runner, err := bench.NewRunner(bench.Config{Scale: *scale, Seed: *seed, Out: os.Stdout, JSONDir: *jsonDir})
	if err != nil {
		fatal(err)
	}
	if err := runner.Run(*exps); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lotusx-bench:", err)
	os.Exit(1)
}
