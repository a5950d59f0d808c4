// Package bench implements the experiment suite of DESIGN.md §5: E1–E11
// and the ablations A1–A3 reproduce the LotusX demo paper's claims, one
// experiment per claim printing a table that quantifies it; E14 and E17
// measure what the live benchmark (benchmark/) cannot — injected shard
// failure, replica failover and hedging.
// The experiments table declares the suite once; cmd/lotusx-bench runs it,
// and the repo-root bench_test.go exposes the paper experiments as
// testing.B benchmarks.
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"text/tabwriter"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/twig"
)

// Config tunes a Runner.
type Config struct {
	// Scale is the dataset scale factor (1 is ~10-40k nodes per dataset).
	Scale int
	// Seed makes workloads reproducible.
	Seed int64
	// Out receives the printed tables.
	Out io.Writer
	// JSONDir, when set, additionally writes every experiment's tables as
	// machine-readable BENCH_<ID>.json files into that directory.
	JSONDir string
}

// Runner holds the built engines and runs experiments.
type Runner struct {
	cfg     Config
	env     benchEnv
	engines map[dataset.Kind]*core.Engine
	// E1's measurements of what precedes the engine build.
	inputs map[dataset.Kind]input
	// cur is the experiment the next table belongs to; recorded accumulates
	// each experiment's parsed tables for the JSONDir files.
	cur      experiment
	recorded map[string][]jsonTable
}

// input is one generated dataset as E1 reports it: its XML size and the
// time to parse it.  The engine's BuildTiming covers index and guide.
type input struct {
	xmlBytes int
	parse    time.Duration
}

// NewRunner generates the datasets and builds one engine per dataset,
// recording E1's construction measurements along the way.
func NewRunner(cfg Config) (*Runner, error) {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.Out == nil {
		return nil, fmt.Errorf("bench: Config.Out is required")
	}
	r := &Runner{
		cfg:     cfg,
		env:     benchEnv{runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU()},
		engines: make(map[dataset.Kind]*core.Engine),
		inputs:  make(map[dataset.Kind]input),
	}
	for _, kind := range dataset.Kinds {
		if err := r.buildOne(kind); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *Runner) buildOne(kind dataset.Kind) error {
	var xml bytes.Buffer
	if err := dataset.Generate(kind, r.cfg.Scale, r.cfg.Seed, &xml); err != nil {
		return err
	}
	start := time.Now()
	d, err := doc.FromReader(fmt.Sprintf("%s-s%d", kind, r.cfg.Scale), bytes.NewReader(xml.Bytes()))
	if err != nil {
		return err
	}
	r.inputs[kind] = input{xmlBytes: xml.Len(), parse: time.Since(start)}
	r.engines[kind] = core.FromDocument(d)
	return nil
}

// Engine returns the engine for a dataset kind.
func (r *Runner) Engine(kind dataset.Kind) *core.Engine { return r.engines[kind] }

// rng returns a fresh deterministic source for one experiment.
func (r *Runner) rng(offset int64) *rand.Rand {
	return rand.New(rand.NewSource(r.cfg.Seed + offset))
}

// experiment is one row of the suite: the ID its banner and JSON file carry,
// the claim it quantifies, and the function that prints its tables.
type experiment struct {
	id, claim string
	run       func(*Runner) error
}

// experiments is the suite in run order, the one place an experiment is
// declared.
var experiments = []experiment{
	{"E1", "index construction cost per dataset", (*Runner).E1IndexBuild},
	{"E2", "twig algorithms: evaluation time per query (ms)", (*Runner).E2TwigAlgorithms},
	{"E3", "intermediate path solutions: PathStack vs TwigStack vs TJFast", (*Runner).E3Intermediate},
	{"E4", "parent-child-heavy queries: TwigStack vs look-ahead pruning", (*Runner).E4ParentChild},
	{"E5", "auto-completion latency by prefix length (µs/op)", (*Runner).E5CompletionLatency},
	{"E6", "candidate quality: rank of the intended tag (position-aware vs naive)", (*Runner).E6CompletionQuality},
	{"E7", "ranking quality: nDCG@10 / P@5 vs document-order and random baselines", (*Runner).E7Ranking},
	{"E8", "order-sensitive queries: overhead of << constraints", (*Runner).E8Ordered},
	{"E9", "query rewriting: recovery of broken queries", (*Runner).E9Rewrite},
	{"E10", "end-to-end interactive session latency (per step, ms)", (*Runner).E10Session},
	{"E11", "scalability: build and query cost vs dataset scale", (*Runner).E11Scalability},
	{"E14", "fault tolerance: availability and p99 under injected shard failures", (*Runner).E14FaultTolerance},
	{"E17", "distributed router: replicated availability under faults, hedging under latency skew", (*Runner).E17RemoteRouter},
	{"A1", "ablation: value-predicate pushdown vs post-filtering", (*Runner).A1Pushdown},
	{"A2", "ablation: tree pattern minimization of redundant twigs", (*Runner).A2Minimization},
	{"A3", "ablation: rewrite penalty model (default vs uniform)", (*Runner).A3PenaltyModel},
}

// selectExperiments resolves a comma-separated, case-insensitive ID list in
// the order given; an empty list selects the whole suite.
func selectExperiments(ids string) ([]experiment, error) {
	if ids == "" {
		return experiments, nil
	}
	var picked []experiment
	for _, id := range strings.Split(ids, ",") {
		id = strings.TrimSpace(id)
		i := slices.IndexFunc(experiments, func(e experiment) bool { return strings.EqualFold(e.id, id) })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q", id)
		}
		picked = append(picked, experiments[i])
	}
	return picked, nil
}

// Run executes the experiments ids names (see selectExperiments), printing
// the environment line and then each experiment's banner and tables.  An
// unknown ID fails before anything runs.
func (r *Runner) Run(ids string) error {
	picked, err := selectExperiments(ids)
	if err != nil {
		return err
	}
	fmt.Fprintf(r.cfg.Out, "env: %s\n", r.env)
	for _, e := range picked {
		r.cur = e
		delete(r.recorded, e.id) // a re-run replaces the experiment's tables
		fmt.Fprintf(r.cfg.Out, "\n=== %s — %s ===\n", e.id, e.claim)
		if err := e.run(r); err != nil {
			return err
		}
	}
	return nil
}

// RunAll executes every experiment in order.
func (r *Runner) RunAll() error { return r.Run("") }

// benchEnv is where a run was measured, so a reader can place its numbers.
type benchEnv struct {
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
}

func (e benchEnv) String() string {
	return fmt.Sprintf("%s %s/%s, GOMAXPROCS=%d, NumCPU=%d", e.GoVersion, e.GOOS, e.GOARCH, e.GOMAXPROCS, e.NumCPU)
}

// table returns a writer for one result table; callers must Flush.  The
// table renders through a tabwriter, and — when Config.JSONDir is set — its
// raw tab-separated rows are also recorded into BENCH_<ID>.json.
func (r *Runner) table() *benchTable {
	return &benchTable{r: r, tw: tabwriter.NewWriter(r.cfg.Out, 2, 4, 2, ' ', 0)}
}

// benchTable tees one experiment table: formatted text through the
// tabwriter, raw rows into the machine-readable record.
type benchTable struct {
	r   *Runner
	tw  *tabwriter.Writer
	raw bytes.Buffer
}

func (t *benchTable) Write(p []byte) (int, error) {
	t.raw.Write(p)
	return t.tw.Write(p)
}

// Flush flushes the rendered table and records its rows for the JSON file.
func (t *benchTable) Flush() error {
	if err := t.tw.Flush(); err != nil {
		return err
	}
	return t.r.record(t.raw.String())
}

// jsonTable is one parsed table of an experiment: the first input row is
// taken as the column header.
type jsonTable struct {
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

// jsonExperiment is the BENCH_<ID>.json document.
type jsonExperiment struct {
	ID     string      `json:"id"`
	Claim  string      `json:"claim"`
	Scale  int         `json:"scale"`
	Seed   int64       `json:"seed"`
	Env    benchEnv    `json:"env"`
	Tables []jsonTable `json:"tables"`
}

// record parses one flushed table and rewrites the current experiment's
// JSON file with everything recorded for it so far.
func (r *Runner) record(raw string) error {
	if r.cfg.JSONDir == "" || r.cur.id == "" {
		return nil
	}
	var tab jsonTable
	for _, line := range strings.Split(raw, "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		cells := strings.Split(line, "\t")
		for i := range cells {
			cells[i] = strings.TrimSpace(cells[i])
		}
		if len(cells) > 0 && cells[len(cells)-1] == "" {
			cells = cells[:len(cells)-1] // rows conventionally end with \t\n
		}
		if tab.Columns == nil {
			tab.Columns = cells
			continue
		}
		tab.Rows = append(tab.Rows, cells)
	}
	if r.recorded == nil {
		r.recorded = make(map[string][]jsonTable)
	}
	id := r.cur.id
	r.recorded[id] = append(r.recorded[id], tab)
	doc := jsonExperiment{
		ID:     id,
		Claim:  r.cur.claim,
		Scale:  r.cfg.Scale,
		Seed:   r.cfg.Seed,
		Env:    r.env,
		Tables: r.recorded[id],
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.cfg.JSONDir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(r.cfg.JSONDir, "BENCH_"+id+".json")
	return os.WriteFile(name, append(data, '\n'), 0o644)
}

// ms renders a duration in milliseconds with sensible precision.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

// Query is one workload query.
type Query struct {
	ID   string
	Kind dataset.Kind
	Text string
	// PCHeavy marks queries dominated by parent-child edges (E4's subset).
	PCHeavy bool
	// Ordered marks order-sensitive queries (E8's subset).
	Ordered bool
}

// Workload returns the query set Q1–Q12 over the three datasets, covering
// paths, branches, values, deep recursion, parent-child chains and order
// constraints.
func Workload() []Query {
	return []Query{
		{ID: "Q1", Kind: dataset.DBLP, Text: `//article/title`, PCHeavy: true},
		{ID: "Q2", Kind: dataset.DBLP, Text: `//inproceedings[author][year]/title`},
		{ID: "Q3", Kind: dataset.DBLP, Text: `//article[author = "wei lu"]/title`},
		{ID: "Q4", Kind: dataset.DBLP, Text: `//dblp//author`},
		{ID: "Q5", Kind: dataset.XMark, Text: `//item[description//text contains "vintage"]/name`},
		{ID: "Q6", Kind: dataset.XMark, Text: `//person[profile/age]/name`, PCHeavy: true},
		{ID: "Q7", Kind: dataset.XMark, Text: `//open_auction[bidder/increase][seller]`},
		{ID: "Q8", Kind: dataset.XMark, Text: `//open_auction[bidder << current]`, Ordered: true},
		{ID: "Q9", Kind: dataset.TreeBank, Text: `//S//NP//NN`},
		{ID: "Q10", Kind: dataset.TreeBank, Text: `//S/VP/NP/NN`, PCHeavy: true},
		{ID: "Q11", Kind: dataset.TreeBank, Text: `//S[NP/PP][VP//NN]`},
		{ID: "Q12", Kind: dataset.TreeBank, Text: `//S[NP << VP]`, Ordered: true},
		// NP nests inside NP only through a PP in this grammar, so every
		// ancestor-descendant (NP, NP) pair is a parent-child decoy — the
		// case look-ahead pruning exists for.
		{ID: "Q13", Kind: dataset.TreeBank, Text: `//NP/NP/NN`, PCHeavy: true},
	}
}

// mustParse parses a workload query (all are valid by construction).
func mustParse(text string) *twig.Query { return twig.MustParse(text) }
