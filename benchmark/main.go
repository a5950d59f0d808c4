// Command benchmark drives a real lotusx-server process over HTTP and reports
// what a user of the GUI sees: per-keystroke completion latency, query
// latency, throughput and set-up time, on four workloads that stress
// different layers.  A traced run adds per-layer numbers from an in-process
// replay and from the server's own counters.  See README.md.
//
//	bash benchmark/run.sh --workload session.cold --seed 1 --seconds 15 --trace 0
//	go run -C benchmark .                         # all four workloads
//	go run -C benchmark . -trace 1                # ... with the per-layer report
//	go run -C benchmark . -compare a/run.json b/run.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run; empty runs all four")
	seed := flag.Int64("seed", 1, "seed of the request stream")
	seconds := flag.Int("seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1 adds the traced in-process replay and prints the per-layer metrics")
	out := flag.String("out", "", "directory for run.json and trace.json (default .bench_build/out in the checkout)")
	compare := flag.Bool("compare", false, "compare two run.json files given as arguments")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	contract, err := loadContract(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two run.json files"))
		}
		if err := compareFiles(os.Stdout, contract, flag.Arg(0), flag.Arg(1)); err != nil {
			return fail(err)
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fail(fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace))
	}
	todo := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			return fail(err)
		}
		todo = []workload{w}
	}
	if *out == "" {
		*out = filepath.Join(workDir(root), "out")
	}

	// The generator is one process with as many threads as it has clients;
	// the machine's two cores are shared with the server.
	runtime.GOMAXPROCS(clients)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	defer stopAll() // no orphan server, whatever path leaves run

	bin, err := buildServer(root)
	if err != nil {
		return fail(err)
	}
	// Set-up time is the median of three starts; a traced run does not report
	// it and starts the server once.
	setups := 3
	if *trace == 1 {
		setups = 1
	}
	code := 0
	for _, w := range todo {
		rec, err := runWorkload(ctx, runConfig{
			root: root, bin: bin, out: *out, w: w, seed: *seed, warmup: minWarmup,
			window: time.Duration(*seconds) * time.Second, traced: *trace == 1, setups: setups,
		})
		if err != nil {
			return fail(fmt.Errorf("%s: %w", w.Name, err))
		}
		rec.print(os.Stdout)
		line, err := rec.contractLine(contract)
		if err != nil {
			return fail(err)
		}
		fmt.Println(line)
		if !rec.Correct {
			code = 1
		}
	}
	return code
}

type runConfig struct {
	root, bin, out string
	w              workload
	seed           int64
	warmup, window time.Duration
	traced         bool
	// setups is how many times the server is started; set-up time is the
	// median, and the last server started serves the run.
	setups int
}

// runWorkload runs one workload once: oracle, server, load, checks, and on a
// traced run the in-process replay.
func runWorkload(ctx context.Context, c runConfig) (*record, error) {
	w := c.w
	stream, err := genStream(c.seed, w.datasets())
	if err != nil {
		return nil, err
	}
	topo, err := buildTopology(w, c.traced)
	if err != nil {
		return nil, err
	}
	orc, err := buildOracle(topo, stream, w.Ingest)
	if err != nil {
		return nil, err
	}
	l := &loader{client: newClient(), stream: stream, oracle: orc, warmup: c.warmup, window: c.window}
	baseNodes, deltaNodes := 0, 0
	if w.Ingest {
		name := w.datasets()[w.Kinds[0]]
		docs, nodes, err := ingestDocs(c.seed, ingestWrites)
		if err != nil {
			return nil, err
		}
		l.plan = &ingestPlan{dataset: name, docs: docs, period: c.window / ingestWrites}
		baseNodes, deltaNodes = topo.backends[name].Info().Nodes, nodes
	}
	if !c.traced {
		// The load generator shares two cores with the server: do not make its
		// collector walk an index it no longer needs.
		topo = nil
		debug.FreeOSMemory()
	}

	var setup samples
	var srv *serverProc
	for i := 0; i < c.setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
		if srv, err = startServer(c.root, c.bin, w, l.client); err != nil {
			return nil, err
		}
		setup.add(srv.SetupS)
	}
	l.base = srv.base

	var scrapes []serverMetrics
	var scrapeErr error
	res, err := l.run(ctx, func() {
		m, err := srv.metrics(ctx, l.client)
		if err != nil {
			scrapeErr = err
		}
		scrapes = append(scrapes, m)
	})
	if err == nil {
		err = scrapeErr
	}
	if err != nil {
		srv.stop()
		return nil, err
	}

	rec := newRecord(c, res, &setup)
	if w.Ingest {
		// Compaction folds delta shards under one root, so each write may
		// cost the count its own root node; a lost write costs thousands.
		nodes, err := settle(ctx, l.client, srv.base, l.plan.dataset)
		want := baseNodes + deltaNodes
		switch {
		case err != nil:
			rec.fail(err.Error())
		case res.jobsDone != ingestWrites:
			rec.fail(fmt.Sprintf("%d of %d ingest jobs done", res.jobsDone, ingestWrites))
		case nodes > want || nodes < want-ingestWrites:
			rec.fail(fmt.Sprintf("corpus has %d nodes after the writes, want %d (less at most %d compacted roots)", nodes, want, ingestWrites))
		}
	}
	rec.serverLayers(scrapes, srv.peakRSSMB())
	// A connection the transport dialled and never used would hold the
	// server's drain for five seconds.
	l.client.CloseIdleConnections()
	if err := srv.stop(); err != nil {
		rec.fail(err.Error())
	}

	if c.traced {
		rp, err := runReplay(ctx, w, topo, stream, c.window/2)
		if err != nil {
			return nil, err
		}
		rec.replayLayers(topo, rp)
		if err := writeJSON(filepath.Join(c.out, "trace.json"), map[string]any{"workload": w.Name, "spans": rp.tr.spans}); err != nil {
			return nil, err
		}
	}
	if err := appendRecord(filepath.Join(c.out, "run.json"), rec); err != nil {
		return nil, err
	}
	return rec, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
