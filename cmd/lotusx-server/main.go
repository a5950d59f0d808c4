// Command lotusx-server runs the interactive LotusX demo: the JSON API plus
// the embedded single-page client (the stand-in for the paper's web GUI).
//
//	lotusx-server -in dblp.xml -addr :8080
//	lotusx-server -dataset xmark -scale 2      # serve a synthetic dataset
//	lotusx-server -dataset dblp -query-timeout 2s -max-inflight 64
//	lotusx-server -in dblp.xml -shards 4       # sharded corpus with fan-out
//	lotusx-server -admin -corpus-dir ./data    # live ingestion, persisted
//
// The flags also derive the distributed roles (see docs/CLUSTER.md): a
// -slice other than 0/1 makes a shard server, and -shard-servers, an input
// in place of -in, -index or -dataset, makes a router:
//
//	lotusx-server -dataset xmark -slice 0/2 -addr :9001
//	lotusx-server -dataset xmark -slice 1/2 -addr :9002
//	lotusx-server \
//	    -shard-servers "http://h1:9001,http://h2:9001;http://h1:9002,http://h2:9002"
//
// Every role starts the same way: parse and validate the flags, build the
// server, serve until a signal.  A flag set for a role that never reads it
// is an error, not silently ignored.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/dataset"
	"lotusx/internal/fanout"
	"lotusx/internal/metrics"
	"lotusx/internal/obs"
	"lotusx/internal/remote"
	"lotusx/internal/server"
	"lotusx/internal/slo"
	"lotusx/internal/source"
)

func main() {
	c, err := parse(flag.NewFlagSet(os.Args[0], flag.ExitOnError), os.Args[1:])
	if err != nil {
		fatal(err)
	}
	srv, err := c.build(os.Stdout)
	if err != nil {
		fatal(err)
	}
	if err := serveUntilSignal(c.addr, srv, c.drainTimeout); err != nil {
		fatal(err)
	}
}

// The roles a server can take, derived from its flags: a router iff
// -shard-servers is set, else a shard server iff -slice is not 0/1, else a
// standalone server.
const (
	roleServe  = "serve"
	roleShard  = "shard"
	roleRouter = "router"
)

// roleSetBy says which flag gave a role, for the errors that name it.
var roleSetBy = map[string]string{
	roleServe:  "no -shard-servers or -slice",
	roleShard:  "set by -slice",
	roleRouter: "set by -shard-servers",
}

// modeFlags names the roles that read each role-specific flag, space
// separated; a flag not listed applies to every role.  parse rejects a
// listed flag set in any other role.
var modeFlags = map[string]string{
	"shards": "serve", "admin": "serve", "corpus-dir": "serve", "ingest-workers": "serve",
	"ingest-queue": "serve", "compact-threshold": "serve", "max-ingest-bytes": "serve",
	"shard-policy": "serve router", "shard-timeout": "serve router",
	"breaker-failures": "serve router", "breaker-cooldown": "serve router",
	"slice": "serve shard", "remote-dataset": "router", "hedge-delay": "router",
	"cluster-name": "router",
}

// config is a validated command line: everything build needs, with the
// flags bound straight into the server, corpus and cluster configurations.
type config struct {
	role            string // roleServe, roleShard or roleRouter
	addr, debugAddr string
	drainTimeout    time.Duration
	quiet           bool
	src             source.Source
	shards          int
	slice, parts    int // -slice i/n; the serve role reads 0/1
	server          server.Config
	cluster         remote.ClusterConfig
	// explicit holds the flags set on the command line.
	explicit map[string]bool
}

// parse fills fs with the server's flags, parses args and validates the
// result.
func parse(fs *flag.FlagSet, args []string) (*config, error) {
	c := &config{server: server.Config{Metrics: metrics.New()}}
	s, t, cl := &c.server, &c.server.Corpus, &c.cluster
	fs.StringVar(&c.src.In, "in", "", "input XML file")
	fs.StringVar(&c.src.Index, "index", "", "persisted index file")
	fs.StringVar(&c.src.Kind, "dataset", "", "serve a synthetic dataset: dblp, xmark, treebank, or \"all\" for a catalog")
	fs.IntVar(&c.src.Scale, "scale", 1, "synthetic dataset scale")
	fs.Int64Var(&c.src.Seed, "seed", 42, "synthetic dataset seed")
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.DurationVar(&s.QueryTimeout, "query-timeout", 0,
		"per-request deadline; expired requests answer 504 (0 disables)")
	fs.IntVar(&s.MaxInflight, "max-inflight", 0,
		"max concurrent API requests; excess load is shed with 503 + Retry-After (0 disables)")
	fs.Float64Var(&s.RateQPS, "rate-qps", 0,
		"per-client request rate (token bucket keyed by X-Lotusx-Client, else the remote address); over-rate clients answer 429 + Retry-After (0 disables)")
	fs.IntVar(&s.RateBurst, "rate-burst", 0,
		"per-client burst depth for -rate-qps; 0 derives a default from the rate")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 30*time.Second,
		"graceful-shutdown budget after SIGTERM/SIGINT: in-flight requests and queued ingests get this long to finish before the process exits")
	fs.BoolVar(&c.quiet, "quiet", false, "suppress per-request logs")
	fs.BoolVar(&s.EnableAdmin, "admin", false,
		"enable the dataset admin API (POST/DELETE /api/v1/datasets/...)")
	fs.StringVar(&s.CorpusDir, "corpus-dir", "",
		"directory persisting corpus-backed datasets; existing corpora reload at startup")
	fs.IntVar(&c.shards, "shards", 1,
		"split each served dataset into N shards queried with parallel fan-out")
	fs.DurationVar(&s.SlowQuery, "slow-query", 250*time.Millisecond,
		"log queries slower than this with a per-stage breakdown (0 disables)")
	fs.StringVar(&c.debugAddr, "debug-addr", "",
		"separate listener for pprof, /healthz, /readyz and /buildinfo (off when empty)")
	fs.StringVar((*string)(&t.Policy), "shard-policy", string(corpus.PolicyDegrade),
		"what a shard failure does to a fan-out: \"degrade\" answers from the survivors with partial:true, \"failfast\" fails the request")
	fs.DurationVar(&t.ShardTimeout, "shard-timeout", 0,
		"per-shard evaluation time budget; 0 derives it from the request deadline, negative disables it")
	fs.IntVar(&t.BreakerThreshold, "breaker-failures", 0,
		"consecutive failures quarantining a shard behind its circuit breaker; 0 means the default (5), negative disables breakers")
	fs.DurationVar(&t.BreakerCooldown, "breaker-cooldown", 0,
		"how long a quarantined shard sits out before a half-open probe; 0 means the default (30s)")
	cacheResults := fs.Bool("cache-results", true,
		"cache full query answers keyed by snapshot generation; pages of one answer share an entry")
	cacheCompletions := fs.Bool("cache-completions", true,
		"cache completion candidates with a prefix-extension fast path")
	fs.Int64Var(&s.CacheBytes, "cache-bytes", 64<<20,
		"total memory bound shared by the hot-path caches; <= 0 disables both")
	fs.IntVar(&s.IngestWorkers, "ingest-workers", 0,
		"background ingestion workers for the async admin API; 0 means the default (2)")
	fs.IntVar(&s.IngestQueue, "ingest-queue", 0,
		"queued-job capacity of the async ingestion pipeline; 0 means the default (32)")
	fs.IntVar(&s.CompactThreshold, "compact-threshold", 0,
		"delta shards per dataset before a background compaction is scheduled; 0 means the default (4), negative disables auto-compaction")
	fs.Int64Var(&s.MaxIngestBytes, "max-ingest-bytes", 0,
		"largest accepted ingest body; 0 means the default (256 MiB)")
	slice := fs.String("slice", "0/1",
		"serve slice i of n (\"i/n\") of the input document; any slice but 0/1 makes this a shard server for a router")
	shardServers := fs.String("shard-servers", "",
		"route over shard servers instead of serving an input, making this a router: replica groups of shard base URLs — \",\" separates replicas of one shard, \";\" separates shards")
	fs.StringVar(&cl.Dataset, "remote-dataset", "",
		"with -shard-servers: dataset requested of shard servers (\"{shard}\" expands to the shard index; empty uses each server's default)")
	fs.DurationVar(&cl.HedgeDelay, "hedge-delay", 0,
		"with -shard-servers: delay before a search hedges to a second replica; 0 adapts to observed p95, negative disables hedging")
	fs.StringVar(&cl.Name, "cluster-name", "cluster",
		"with -shard-servers: the router-side dataset name for the remote corpus")
	fs.IntVar(&s.TraceCapacity, "trace-capacity", 0,
		"tail-sampled trace store size behind GET /api/v1/traces; 0 means the default (512), negative disables the store")
	fs.IntVar(&s.TraceSampleEvery, "trace-sample-every", 0,
		"keep 1 of every N uninteresting traces as a uniform sample; 0 means the default (64), negative disables the sample")
	sloSearchP99 := fs.Duration("slo-search-p99", 0,
		"latency objective: 99% of /api/v1/query responses faster than this (0 disables)")
	sloAvailability := fs.Float64("slo-availability", 0,
		"availability objective as a percentage, e.g. 99.9: that fraction of all responses non-5xx (0 disables)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	c.explicit = map[string]bool{}
	fs.Visit(func(f *flag.Flag) { c.explicit[f.Name] = true })
	var err error
	if c.slice, c.parts, err = parseSlice(*slice); err != nil {
		return nil, err
	}
	inputs := c.src.Inputs()
	switch {
	case c.explicit["shard-servers"]:
		c.role = roleRouter
		inputs++
	case c.parts > 1:
		c.role = roleShard
	default:
		c.role = roleServe
	}
	if inputs > 1 {
		return nil, fmt.Errorf("-in, -index, -dataset and -shard-servers are exclusive: name one input")
	}
	var misapplied error
	fs.Visit(func(f *flag.Flag) {
		if roles, ok := modeFlags[f.Name]; ok && !slices.Contains(strings.Fields(roles), c.role) && misapplied == nil {
			misapplied = fmt.Errorf("-%s does not apply to the %s role (%s)", f.Name, c.role, roleSetBy[c.role])
		}
	})
	switch {
	case misapplied != nil:
		return nil, misapplied
	case (c.explicit["scale"] || c.explicit["seed"]) && c.src.Kind == "":
		return nil, fmt.Errorf("-scale and -seed apply only with -dataset")
	case c.role == roleShard && c.src.Kind == "all":
		return nil, fmt.Errorf("-dataset all does not apply to the shard role (set by -slice): serve one dataset's slice")
	case c.shards < 1:
		return nil, fmt.Errorf("bad -shards %d: want >= 1", c.shards)
	}
	if t.Policy, err = corpus.ParsePolicy(string(t.Policy)); err != nil {
		return nil, err
	}
	if s.SLO, err = buildSLO(*sloSearchP99, *sloAvailability); err != nil {
		return nil, err
	}
	if c.role == roleRouter {
		if cl.Groups, err = parseShardServers(*shardServers); err != nil {
			return nil, err
		}
	}
	s.DisableResultCache, s.DisableCompletionCache = !*cacheResults, !*cacheCompletions
	if s.CacheBytes <= 0 {
		s.CacheBytes = -1 // 0 would mean "use the default bound"
	}
	if !c.quiet {
		s.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return c, nil
}

// build assembles the server the config describes — a catalog of loaded
// datasets, or for a router one remote corpus — starts the debug listener
// and prints the start-up banner to out.
func (c *config) build(out io.Writer) (*server.Server, error) {
	started := time.Now()
	catalog := core.NewCatalog()
	var banner string
	if c.role == roleRouter {
		// The hot-path caches key on the corpus snapshot generation, which a
		// remote corpus freezes at 1 — it cannot see shard-server re-ingests.
		// Default them off in a router; an explicit -cache-* flag wins (a
		// static cluster is a legitimate reason to turn them back on).
		c.server.DisableResultCache = c.server.DisableResultCache || !c.explicit["cache-results"]
		c.server.DisableCompletionCache = c.server.DisableCompletionCache || !c.explicit["cache-completions"]
		c.cluster.Metrics, c.cluster.Tuning = c.server.Metrics, c.server.Corpus
		cl, err := remote.NewCluster(c.cluster)
		if err != nil {
			return nil, err
		}
		catalog.AddBackend(c.cluster.Name, cl.Corpus)
		c.server.ClusterStatus = cl.Status
		replicas := 0
		for _, g := range c.cluster.Groups {
			replicas += len(g)
		}
		banner = fmt.Sprintf("routing %s over %d shard(s), %d replica endpoint(s) on %s%s",
			c.cluster.Name, len(c.cluster.Groups), replicas, c.addr, servingNote(c.server))
	} else {
		if err := c.load(catalog, out); err != nil {
			return nil, err
		}
		if !c.quiet {
			fmt.Fprintf(out, "start-up took %v\n", time.Since(started).Round(time.Millisecond))
		}
		banner = fmt.Sprintf("serving %d datasets on %s%s", catalog.Len(), c.addr, servingNote(c.server))
		if c.server.EnableAdmin {
			banner += " (admin API on)"
		}
	}
	srv := server.NewCatalogConfig(catalog, c.server)
	startDebug(c.debugAddr, srv, out)
	fmt.Fprintln(out, banner)
	return srv, nil
}

// load fills the catalog of the serve and shard roles: the corpora
// persisted under -corpus-dir, then the datasets the flags name.
func (c *config) load(catalog *core.Catalog, out io.Writer) error {
	if c.server.CorpusDir != "" {
		if err := c.reloadCorpora(catalog, out); err != nil {
			return err
		}
	}
	var list []served
	switch {
	case c.src.Kind == "all":
		// The demo setup: every synthetic dataset in one catalog, selected
		// per request with ?dataset=.
		for _, k := range dataset.Kinds {
			list = append(list, served{name: string(k), src: source.Source{Kind: string(k), Scale: c.src.Scale, Seed: c.src.Seed}})
		}
	case c.src.Inputs() > 0 || c.role == roleShard:
		list = []served{{src: c.src}}
	case catalog.Len() == 0 && !c.server.EnableAdmin:
		return fmt.Errorf("one of -in, -index or -dataset is required (or -admin to ingest over HTTP)")
	}
	return c.loadDatasets(catalog, list, !c.quiet, out)
}

// startDebug serves the operational endpoints — pprof, /healthz, /readyz,
// /buildinfo — on their own listener, keeping them off the public API port.
func startDebug(addr string, srv *server.Server, out io.Writer) {
	if addr == "" {
		return
	}
	fmt.Fprintf(out, "debug endpoints (pprof, healthz, readyz, buildinfo) on %s\n", addr)
	go func() {
		mux := obs.DebugMux(obs.DebugOptions{Ready: srv.Ready, Degraded: srv.Degraded, Burning: srv.SLOBurning})
		if err := http.ListenAndServe(addr, mux); err != nil {
			fmt.Fprintln(os.Stderr, "lotusx-server: debug listener:", err)
		}
	}()
}

// buildSLO translates the -slo-* flags into a tracker; both flags off
// means no SLO engine at all (nil tracker, no lotusx_slo_* families).
func buildSLO(searchP99 time.Duration, availability float64) (*slo.Tracker, error) {
	var objectives []slo.Objective
	if searchP99 > 0 {
		objectives = append(objectives, slo.Objective{
			Name:      "search-p99",
			Endpoint:  "query",
			Target:    0.99,
			Threshold: searchP99,
		})
	}
	if availability != 0 {
		if availability <= 0 || availability >= 100 {
			return nil, fmt.Errorf("bad -slo-availability %v: want a percentage in (0, 100), e.g. 99.9", availability)
		}
		objectives = append(objectives, slo.Objective{Name: "availability", Target: availability / 100})
	}
	if len(objectives) == 0 {
		return nil, nil
	}
	return slo.New(slo.Config{Objectives: objectives})
}

// served is one dataset to load: where it comes from, and the catalog name
// it is served under ("" means source.Name of its document).
type served struct {
	name string
	src  source.Source
}

// builtDataset is one dataset's backend, built and waiting for its turn to
// be registered.
type builtDataset struct {
	name    string
	backend core.Backend
	took    time.Duration    // the whole build
	load    time.Duration    // reading, generating and parsing the document
	work    core.BuildTiming // index and guide time, summed over the engines
}

// loadDatasets builds every dataset — concurrently, one dataset per core —
// and then registers the backends and prints their banner lines to out in
// list order, whatever order the builds finished in: the first dataset
// registered is the catalog's default.  verbose adds where each build's
// time went.
func (c *config) loadDatasets(catalog *core.Catalog, list []served, verbose bool, out io.Writer) error {
	built := make([]*builtDataset, len(list))
	err := fanout.Do(len(list), func(i int) error {
		var err error
		built[i], err = c.buildDataset(list[i])
		return err
	})
	if err != nil {
		return err
	}
	for _, b := range built {
		catalog.AddBackend(b.name, b.backend)
		info := b.backend.Info()
		line := fmt.Sprintf("loaded %s (%d nodes)", b.name, info.Nodes)
		if info.Shards > 1 {
			line = fmt.Sprintf("loaded %s (%d nodes, %d shards)", b.name, info.Nodes, info.Shards)
		}
		if verbose {
			ms := time.Millisecond
			line += fmt.Sprintf(" in %v: load %v, index %v, guide %v",
				b.took.Round(ms), b.load.Round(ms), b.work.Index.Round(ms), b.work.Guide.Round(ms))
		}
		fmt.Fprintln(out, line)
	}
	return nil
}

// buildDataset turns one dataset into its backend: the engine of the
// configured slice (the whole document at 0/1) when shards is 1, else a
// corpus of shards parts, persisted under -corpus-dir when set.  A sharded
// dataset loads only the document — the whole-document engine would never
// be served.
func (c *config) buildDataset(sv served) (*builtDataset, error) {
	start := time.Now()
	b := &builtDataset{name: sv.name}
	if c.shards == 1 {
		engine, err := sv.src.Slice(c.slice, c.parts)
		if err != nil {
			return nil, err
		}
		if b.name == "" {
			b.name = source.Name(engine.Document())
		}
		b.backend, b.work = engine, engine.BuildTiming()
		b.took = time.Since(start)
		b.load = b.took - b.work.Index - b.work.Guide
		return b, nil
	}
	d, err := sv.src.Document()
	if err != nil {
		return nil, err
	}
	b.load = time.Since(start)
	if b.name == "" {
		b.name = source.Name(d)
	}
	ccfg := corpus.Config{Metrics: c.server.Metrics.Corpus(b.name), Tuning: c.server.Corpus}
	if c.server.CorpusDir != "" {
		ccfg.Dir = filepath.Join(c.server.CorpusDir, b.name)
	}
	cp, err := corpus.FromDocument(b.name, d, c.shards, ccfg)
	if err != nil {
		return nil, err
	}
	b.backend = cp
	for _, ne := range cp.Engines() {
		t := ne.Engine.BuildTiming()
		b.work.Index += t.Index
		b.work.Guide += t.Guide
	}
	b.took = time.Since(start)
	return b, nil
}

// reloadCorpora reopens every persisted corpus under -corpus-dir (one
// subdirectory with a manifest each) so admin-created datasets survive
// restarts.
func (c *config) reloadCorpora(catalog *core.Catalog, out io.Writer) error {
	dir := c.server.CorpusDir
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil // created on first ingest
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		if _, err := os.Stat(filepath.Join(sub, "MANIFEST.json")); err != nil {
			continue
		}
		cp, err := corpus.Open(sub, corpus.Config{Metrics: c.server.Metrics.Corpus(e.Name()), Tuning: c.server.Corpus})
		if err != nil {
			return fmt.Errorf("reopening corpus %s: %w", sub, err)
		}
		catalog.AddBackend(e.Name(), cp)
		fmt.Fprintf(out, "reloaded %s (%d shards)\n", e.Name(), cp.Snapshot().Len())
	}
	return nil
}

// servingNote summarizes the serving limits for the startup banner.
func servingNote(cfg server.Config) string {
	s := ""
	if cfg.QueryTimeout > 0 {
		s += fmt.Sprintf(" (query timeout %v)", cfg.QueryTimeout.Round(time.Millisecond))
	}
	if cfg.MaxInflight > 0 {
		s += fmt.Sprintf(" (max in-flight %d)", cfg.MaxInflight)
	}
	return s
}

// parseSlice parses "i/n" with 0 <= i < n.
func parseSlice(s string) (idx, parts int, err error) {
	is, ns, ok := strings.Cut(s, "/")
	if ok {
		idx, err = strconv.Atoi(strings.TrimSpace(is))
		if err == nil {
			parts, err = strconv.Atoi(strings.TrimSpace(ns))
		}
	}
	if !ok || err != nil || parts < 1 || idx < 0 || idx >= parts {
		return 0, 0, fmt.Errorf("bad -slice %q: want \"i/n\" with 0 <= i < n", s)
	}
	return idx, parts, nil
}

// parseShardServers splits the -shard-servers value into replica groups:
// ";" separates logical shards and "," separates replicas within one.
func parseShardServers(s string) ([][]string, error) {
	var groups [][]string
	for _, g := range strings.Split(s, ";") {
		var replicas []string
		for _, u := range strings.Split(g, ",") {
			if u = strings.TrimSpace(u); u != "" {
				replicas = append(replicas, u)
			}
		}
		if len(replicas) > 0 {
			groups = append(groups, replicas)
		}
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("-shard-servers %q names no servers", s)
	}
	return groups, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lotusx-server:", err)
	os.Exit(1)
}
