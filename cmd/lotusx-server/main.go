// Command lotusx-server runs the interactive LotusX demo: the JSON API plus
// the embedded single-page client (the stand-in for the paper's web GUI).
//
//	lotusx-server -in dblp.xml -addr :8080
//	lotusx-server -dataset xmark -scale 2      # serve a synthetic dataset
//	lotusx-server -dataset dblp -query-timeout 2s -max-inflight 64
//	lotusx-server -in dblp.xml -shards 4       # sharded corpus with fan-out
//	lotusx-server -admin -corpus-dir ./data    # live ingestion, persisted
//
// Beyond the default serve mode, -mode selects the distributed roles (see
// docs/CLUSTER.md):
//
//	lotusx-server -mode=shard -dataset xmark -slice 0/2 -addr :9001
//	lotusx-server -mode=shard -dataset xmark -slice 1/2 -addr :9002
//	lotusx-server -mode=router \
//	    -shard-servers "http://h1:9001,http://h2:9001;http://h1:9002,http://h2:9002"
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/fanout"
	"lotusx/internal/metrics"
	"lotusx/internal/obs"
	"lotusx/internal/remote"
	"lotusx/internal/server"
	"lotusx/internal/slo"
)

func main() {
	started := time.Now()
	in := flag.String("in", "", "input XML file")
	indexFile := flag.String("index", "", "persisted index file")
	kind := flag.String("dataset", "", "serve a synthetic dataset: dblp, xmark, treebank, or \"all\" for a catalog")
	scale := flag.Int("scale", 1, "synthetic dataset scale")
	seed := flag.Int64("seed", 42, "synthetic dataset seed")
	addr := flag.String("addr", ":8080", "listen address")
	queryTimeout := flag.Duration("query-timeout", 0,
		"per-request deadline; expired requests answer 504 (0 disables)")
	maxInflight := flag.Int("max-inflight", 0,
		"max concurrent API requests; excess load is shed with 503 + Retry-After (0 disables)")
	rateQPS := flag.Float64("rate-qps", 0,
		"per-client request rate (token bucket keyed by X-Lotusx-Client, else the remote address); over-rate clients answer 429 + Retry-After (0 disables)")
	rateBurst := flag.Int("rate-burst", 0,
		"per-client burst depth for -rate-qps; 0 derives a default from the rate")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"graceful-shutdown budget after SIGTERM/SIGINT: in-flight requests and queued ingests get this long to finish before the process exits")
	quiet := flag.Bool("quiet", false, "suppress per-request logs")
	admin := flag.Bool("admin", false,
		"enable the dataset admin API (POST/DELETE /api/v1/datasets/...)")
	corpusDir := flag.String("corpus-dir", "",
		"directory persisting corpus-backed datasets; existing corpora reload at startup")
	shards := flag.Int("shards", 1,
		"split each served dataset into N shards queried with parallel fan-out")
	slowQuery := flag.Duration("slow-query", 250*time.Millisecond,
		"log queries slower than this with a per-stage breakdown (0 disables)")
	debugAddr := flag.String("debug-addr", "",
		"separate listener for pprof, /healthz, /readyz and /buildinfo (off when empty)")
	shardPolicy := flag.String("shard-policy", string(corpus.PolicyDegrade),
		"what a shard failure does to a fan-out: \"degrade\" answers from the survivors with partial:true, \"failfast\" fails the request")
	shardTimeout := flag.Duration("shard-timeout", 0,
		"per-shard evaluation time budget; 0 derives it from the request deadline, negative disables it")
	breakerFailures := flag.Int("breaker-failures", 0,
		"consecutive failures quarantining a shard behind its circuit breaker; 0 means the default (5), negative disables breakers")
	breakerCooldown := flag.Duration("breaker-cooldown", 0,
		"how long a quarantined shard sits out before a half-open probe; 0 means the default (30s)")
	cacheResults := flag.Bool("cache-results", true,
		"cache full query answers keyed by snapshot generation; pages of one answer share an entry")
	cacheCompletions := flag.Bool("cache-completions", true,
		"cache completion candidates with a prefix-extension fast path")
	cacheBytes := flag.Int64("cache-bytes", 64<<20,
		"total memory bound shared by the hot-path caches; <= 0 disables both")
	ingestWorkers := flag.Int("ingest-workers", 0,
		"background ingestion workers for the async admin API; 0 means the default (2)")
	ingestQueue := flag.Int("ingest-queue", 0,
		"queued-job capacity of the async ingestion pipeline; 0 means the default (32)")
	compactThreshold := flag.Int("compact-threshold", 0,
		"delta shards per dataset before a background compaction is scheduled; 0 means the default (4), negative disables auto-compaction")
	maxIngestBytes := flag.Int64("max-ingest-bytes", 0,
		"largest accepted ingest body; 0 means the default (256 MiB)")
	mode := flag.String("mode", "serve",
		"role: \"serve\" (standalone), \"shard\" (serve one document slice to a router), \"router\" (fan out over -shard-servers)")
	slice := flag.String("slice", "0/1",
		"with -mode=shard: serve slice i of n (\"i/n\") of the input document")
	shardServers := flag.String("shard-servers", "",
		"with -mode=router: replica groups of shard base URLs — \",\" separates replicas of one shard, \";\" separates shards")
	replication := flag.Int("replication", 1,
		"with -mode=router and a flat (no \";\") -shard-servers list: group every R consecutive URLs into one shard's replica set")
	remoteDataset := flag.String("remote-dataset", "",
		"with -mode=router: dataset requested of shard servers (\"{shard}\" expands to the shard index; empty uses each server's default)")
	hedgeDelay := flag.Duration("hedge-delay", 0,
		"with -mode=router: delay before a search hedges to a second replica; 0 adapts to observed p95, negative disables hedging")
	clusterName := flag.String("cluster-name", "cluster",
		"with -mode=router: the router-side dataset name for the remote corpus")
	traceCapacity := flag.Int("trace-capacity", 0,
		"tail-sampled trace store size behind GET /api/v1/traces; 0 means the default (512), negative disables the store")
	traceSampleEvery := flag.Int("trace-sample-every", 0,
		"keep 1 of every N uninteresting traces as a uniform sample; 0 means the default (64), negative disables the sample")
	sloSearchP99 := flag.Duration("slo-search-p99", 0,
		"latency objective: 99% of /api/v1/query responses faster than this (0 disables)")
	sloAvailability := flag.Float64("slo-availability", 0,
		"availability objective as a percentage, e.g. 99.9: that fraction of all responses non-5xx (0 disables)")
	federateInterval := flag.Duration("federate-interval", 0,
		"with -mode=router: period between shard-server metrics pulls feeding /api/v1/cluster/metrics; 0 means the default (10s), negative disables federation")
	retryBudget := flag.Float64("retry-budget", 0.2,
		"with -mode=router: cap hedges+failovers at this fraction of primary traffic (brownout containment); negative disables the cap")
	flag.Parse()

	if *shards < 1 {
		fatal(fmt.Errorf("bad -shards %d: want >= 1", *shards))
	}
	policy, err := corpus.ParsePolicy(*shardPolicy)
	if err != nil {
		fatal(err)
	}
	tuning := corpus.Tuning{
		Policy:           policy,
		ShardTimeout:     *shardTimeout,
		BreakerThreshold: *breakerFailures,
		BreakerCooldown:  *breakerCooldown,
	}
	tracker, err := buildSLO(*sloSearchP99, *sloAvailability)
	if err != nil {
		fatal(err)
	}
	reg := metrics.New()
	cfg := server.Config{
		QueryTimeout:           *queryTimeout,
		MaxInflight:            *maxInflight,
		RateQPS:                *rateQPS,
		RateBurst:              *rateBurst,
		Metrics:                reg,
		EnableAdmin:            *admin,
		CorpusDir:              *corpusDir,
		Corpus:                 tuning,
		SlowQuery:              *slowQuery,
		DisableResultCache:     !*cacheResults,
		DisableCompletionCache: !*cacheCompletions,
		CacheBytes:             *cacheBytes,
		IngestWorkers:          *ingestWorkers,
		IngestQueue:            *ingestQueue,
		CompactThreshold:       *compactThreshold,
		MaxIngestBytes:         *maxIngestBytes,
		TraceCapacity:          *traceCapacity,
		TraceSampleEvery:       *traceSampleEvery,
		SLO:                    tracker,
	}
	if *cacheBytes <= 0 {
		cfg.CacheBytes = -1 // 0 would mean "use the default bound"
	}
	if !*quiet {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	switch *mode {
	case "serve":
	case "shard":
		runShard(cfg, shardArgs{
			in: *in, indexFile: *indexFile, kind: *kind, scale: *scale, seed: *seed,
			slice: *slice, addr: *addr, debugAddr: *debugAddr, admin: *admin,
			drainTimeout: *drainTimeout,
		})
		return
	case "router":
		runRouter(cfg, reg, tuning, routerArgs{
			shardServers: *shardServers, replication: *replication,
			remoteDataset: *remoteDataset, hedgeDelay: *hedgeDelay,
			clusterName: *clusterName, addr: *addr, debugAddr: *debugAddr,
			admin: *admin, federateInterval: *federateInterval,
			retryBudget: *retryBudget, drainTimeout: *drainTimeout,
		})
		return
	default:
		fatal(fmt.Errorf("bad -mode %q: want serve, shard or router", *mode))
	}

	// The plain path: one engine-backed dataset, no catalog features needed.
	if *kind != "all" && !*admin && *corpusDir == "" && *shards == 1 {
		engine, err := buildEngine(*in, *indexFile, *kind, *scale, *seed)
		if err != nil {
			fatal(err)
		}
		st := engine.Stats()
		srv := server.NewConfig(engine, cfg)
		startDebug(*debugAddr, srv)
		if !*quiet {
			fmt.Printf("built %s in %v%s\n", st.Document, time.Since(started).Round(time.Millisecond), phaseNote(engine.BuildTiming()))
		}
		fmt.Printf("serving %s (%d nodes, %d tags) on %s%s\n", st.Document, st.Nodes, st.Tags, *addr, servingNote(cfg))
		if err := serveUntilSignal(*addr, srv, *drainTimeout, nil); err != nil {
			fatal(err)
		}
		return
	}

	// Catalog mode: multiple datasets, corpus-backed sharding, live admin.
	catalog := core.NewCatalog()
	if *corpusDir != "" {
		if err := reloadCorpora(catalog, *corpusDir, reg, tuning); err != nil {
			fatal(err)
		}
	}

	var sources []source
	switch {
	case *kind == "all":
		// The demo setup: every synthetic dataset in one catalog, selected
		// per request with ?dataset=.
		for _, k := range dataset.Kinds {
			sources = append(sources, source{name: string(k), kind: string(k), scale: *scale, seed: *seed})
		}
	case *in != "" || *indexFile != "" || *kind != "":
		sources = []source{{in: *in, indexFile: *indexFile, kind: *kind, scale: *scale, seed: *seed}}
	default:
		if catalog.Len() == 0 && !*admin {
			fatal(fmt.Errorf("one of -in, -index or -dataset is required (or -admin to ingest over HTTP)"))
		}
	}
	lc := loadConfig{shards: *shards, corpusDir: *corpusDir, reg: reg, tuning: tuning}
	if err := loadDatasets(catalog, sources, lc, !*quiet, os.Stdout); err != nil {
		fatal(err)
	}
	if !*quiet {
		fmt.Printf("start-up took %v\n", time.Since(started).Round(time.Millisecond))
	}

	note := servingNote(cfg)
	if *admin {
		note += " (admin API on)"
	}
	srv := server.NewCatalogConfig(catalog, cfg)
	startDebug(*debugAddr, srv)
	fmt.Printf("serving %d datasets on %s%s\n", catalog.Len(), *addr, note)
	if err := serveUntilSignal(*addr, srv, *drainTimeout, nil); err != nil {
		fatal(err)
	}
}

// startDebug serves the operational endpoints — pprof, /healthz, /readyz,
// /buildinfo — on their own listener, keeping them off the public API port.
func startDebug(addr string, srv *server.Server) {
	if addr == "" {
		return
	}
	fmt.Printf("debug endpoints (pprof, healthz, readyz, buildinfo) on %s\n", addr)
	go func() {
		mux := obs.DebugMux(obs.DebugOptions{
			Ready:    srv.Ready,
			Degraded: srv.Degraded,
			Burning:  srv.SLOBurning,
		})
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
		objectives = append(objectives, slo.Objective{
			Name:   "availability",
			Target: availability / 100,
		})
	}
	if len(objectives) == 0 {
		return nil, nil
	}
	return slo.New(slo.Config{Objectives: objectives})
}

// source names where one served dataset comes from — an XML file, a
// persisted index or a synthetic generator — and the catalog name it is
// served under ("" means the document's own name).
type source struct {
	name                string
	in, indexFile, kind string
	scale               int
	seed                int64
}

// loadConfig is how sources become catalog backends: whole-document engines
// when shards is 1, corpora of shards parts (persisted under corpusDir when
// set) otherwise.
type loadConfig struct {
	shards    int
	corpusDir string
	reg       *metrics.Registry
	tuning    corpus.Tuning
}

// builtDataset is one source's backend, built and waiting for its turn to
// be registered.
type builtDataset struct {
	name    string
	backend core.Backend
	took    time.Duration    // the whole build
	load    time.Duration    // reading, generating and parsing the document
	work    core.BuildTiming // index and guide time, summed over the engines
}

// loadDatasets builds every source — concurrently, one dataset per core —
// and then registers the backends and prints their banner lines to out in
// source order, whatever order the builds finished in: the first dataset
// registered is the catalog's default.  verbose adds where each build's
// time went.
func loadDatasets(catalog *core.Catalog, sources []source, lc loadConfig, verbose bool, out io.Writer) error {
	built := make([]*builtDataset, len(sources))
	err := fanout.Do(len(sources), func(i int) error {
		var err error
		built[i], err = lc.build(sources[i])
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
			line += fmt.Sprintf(" in %v: load %v%s", b.took.Round(time.Millisecond), b.load.Round(time.Millisecond), phaseNote(b.work))
		}
		fmt.Fprintln(out, line)
	}
	return nil
}

// phaseNote renders an engine's (or a corpus's summed) build phases for the
// start-up banner.
func phaseNote(t core.BuildTiming) string {
	return fmt.Sprintf(", index %v, guide %v", t.Index.Round(time.Millisecond), t.Guide.Round(time.Millisecond))
}

// build turns one source into its backend.  A sharded dataset loads only
// the document — the whole-document engine would never be served.
func (lc loadConfig) build(src source) (*builtDataset, error) {
	start := time.Now()
	b := &builtDataset{name: src.name}
	if lc.shards == 1 {
		engine, err := buildEngine(src.in, src.indexFile, src.kind, src.scale, src.seed)
		if err != nil {
			return nil, err
		}
		if b.name == "" {
			b.name = engine.Document().Name()
		}
		b.backend, b.work = engine, engine.BuildTiming()
		b.took = time.Since(start)
		b.load = b.took - b.work.Index - b.work.Guide
		return b, nil
	}
	d, err := loadDocument(src.in, src.indexFile, src.kind, src.scale, src.seed)
	if err != nil {
		return nil, err
	}
	b.load = time.Since(start)
	if b.name == "" {
		b.name = d.Name()
	}
	ccfg := corpus.Config{Metrics: lc.reg.Corpus(b.name), Tuning: lc.tuning}
	if lc.corpusDir != "" {
		ccfg.Dir = filepath.Join(lc.corpusDir, b.name)
	}
	c, err := corpus.FromDocument(b.name, d, lc.shards, ccfg)
	if err != nil {
		return nil, err
	}
	b.backend = c
	for _, ne := range c.Engines() {
		t := ne.Engine.BuildTiming()
		b.work.Index += t.Index
		b.work.Guide += t.Guide
	}
	b.took = time.Since(start)
	return b, nil
}

// reloadCorpora reopens every persisted corpus under dir (one subdirectory
// with a manifest each) so admin-created datasets survive restarts.
func reloadCorpora(catalog *core.Catalog, dir string, reg *metrics.Registry, tuning corpus.Tuning) error {
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
		c, err := corpus.Open(sub, corpus.Config{Metrics: reg.Corpus(e.Name()), Tuning: tuning})
		if err != nil {
			return fmt.Errorf("reopening corpus %s: %w", sub, err)
		}
		catalog.AddBackend(e.Name(), c)
		fmt.Printf("reloaded %s (%d shards)\n", e.Name(), c.Snapshot().Len())
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

// buildEngine builds the whole-document engine of the input the flags name,
// once.
func buildEngine(in, indexFile, kind string, scale int, seed int64) (*core.Engine, error) {
	if indexFile != "" && in == "" {
		// A full-index file brings its postings along, so nothing is
		// tokenized again.
		f, err := os.Open(indexFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.Open(f)
	}
	d, err := loadDocument(in, indexFile, kind, scale, seed)
	if err != nil {
		return nil, err
	}
	return core.FromDocument(d), nil
}

// loadDocument reads, or generates and parses, the document the flags name
// without indexing it.
func loadDocument(in, indexFile, kind string, scale int, seed int64) (*doc.Document, error) {
	switch {
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return doc.FromReader(in, f)
	case indexFile != "":
		f, err := os.Open(indexFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.LoadDocument(f)
	case kind != "":
		return dataset.Build(dataset.Kind(kind), scale, seed)
	default:
		return nil, fmt.Errorf("one of -in, -index or -dataset is required")
	}
}

// ------------------------------------------------------------- shard mode

type shardArgs struct {
	in, indexFile, kind string
	scale               int
	seed                int64
	slice               string
	addr, debugAddr     string
	admin               bool
	drainTimeout        time.Duration
}

// runShard serves one slice of the input document as a slim single-engine
// server — the worker a router fans out to.  The slice split is the same
// deterministic record partition corpus.FromDocument uses, so N shard
// servers over -slice i/N collectively cover exactly the corpus a local
// -shards N deployment would.
func runShard(cfg server.Config, a shardArgs) {
	if a.admin {
		fatal(fmt.Errorf("-mode=shard is a slim serving role: the admin API is unsupported (mutate via re-deploy)"))
	}
	idx, parts, err := parseSlice(a.slice)
	if err != nil {
		fatal(err)
	}
	engine, err := buildSlice(a, idx, parts)
	if err != nil {
		fatal(err)
	}
	st := engine.Stats()
	srv := server.NewConfig(engine, cfg)
	startDebug(a.debugAddr, srv)
	fmt.Printf("serving shard %d/%d of %s (%d nodes, %d tags) on %s%s\n",
		idx, parts, st.Document, st.Nodes, st.Tags, a.addr, servingNote(cfg))
	if err := serveUntilSignal(a.addr, srv, a.drainTimeout, nil); err != nil {
		fatal(err)
	}
}

// buildSlice builds the engine of slice idx of parts: the whole document's
// for 0/1, else the slice's alone — the whole document is only parsed, and
// no other slice is built.
func buildSlice(a shardArgs, idx, parts int) (*core.Engine, error) {
	if parts == 1 {
		return buildEngine(a.in, a.indexFile, a.kind, a.scale, a.seed)
	}
	d, err := loadDocument(a.in, a.indexFile, a.kind, a.scale, a.seed)
	if err != nil {
		return nil, err
	}
	sd, err := corpus.SplitPart(d, parts, idx)
	if err != nil {
		return nil, fmt.Errorf("slice %d/%d: %w", idx, parts, err)
	}
	return core.FromDocument(sd), nil
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

// ------------------------------------------------------------ router mode

type routerArgs struct {
	shardServers     string
	replication      int
	remoteDataset    string
	hedgeDelay       time.Duration
	clusterName      string
	addr, debugAddr  string
	admin            bool
	federateInterval time.Duration
	retryBudget      float64
	drainTimeout     time.Duration
}

// runRouter serves a remote corpus: one logical shard per replica group of
// -shard-servers, fanned out with the same degrade/failfast policy, shard
// budgets and circuit breakers a local corpus gets, plus R-way replica
// racing (hedging + failover) inside each shard.
func runRouter(cfg server.Config, reg *metrics.Registry, tuning corpus.Tuning, a routerArgs) {
	if a.admin {
		fatal(fmt.Errorf("-mode=router serves a read-only remote corpus: the admin API is unsupported (mutate the shard servers)"))
	}
	groups, err := parseShardServers(a.shardServers, a.replication)
	if err != nil {
		fatal(err)
	}
	// The hot-path caches key on the corpus snapshot generation, which a
	// remote corpus freezes at 1 — it cannot see shard-server re-ingests.
	// Default them off in router mode; an explicit -cache-* flag wins (a
	// static cluster is a legitimate reason to turn them back on).
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if !explicit["cache-results"] {
		cfg.DisableResultCache = true
	}
	if !explicit["cache-completions"] {
		cfg.DisableCompletionCache = true
	}

	met := reg.Remote(a.clusterName)
	// One retry budget shared across every shard: the cluster-wide
	// amplification bound is what contains a brownout.
	budget := remote.NewRetryBudget(a.retryBudget, reg.Admission())
	shards := make([]*remote.Shard, len(groups))
	backends := make([]corpus.ShardBackend, len(groups))
	var allClients []*remote.Client
	replicas := 0
	for i, g := range groups {
		name := fmt.Sprintf("%s-%02d", a.clusterName, i)
		clients := make([]*remote.Client, len(g))
		for j, u := range g {
			clients[j], err = remote.NewClient(remote.ClientConfig{
				BaseURL: u,
				Dataset: strings.ReplaceAll(a.remoteDataset, "{shard}", strconv.Itoa(i)),
				Metrics: met,
			})
			if err != nil {
				fatal(err)
			}
		}
		allClients = append(allClients, clients...)
		replicas += len(g)
		shards[i], err = remote.NewShard(name, clients, remote.ShardOptions{
			HedgeDelay: a.hedgeDelay,
			Metrics:    met,
			Budget:     budget,
		})
		if err != nil {
			fatal(err)
		}
		backends[i] = shards[i]
	}
	c, err := corpus.NewRemote(a.clusterName, backends, corpus.Config{
		Metrics: reg.Corpus(a.clusterName),
		Tuning:  tuning,
	})
	if err != nil {
		fatal(err)
	}
	catalog := core.NewCatalog()
	catalog.AddBackend(a.clusterName, c)
	cfg.ClusterStatus = func() any {
		sts := make([]remote.ShardStatus, len(shards))
		for i, sh := range shards {
			sts[i] = sh.Status()
		}
		return map[string]any{"dataset": a.clusterName, "shards": sts}
	}
	var onStop func()
	if a.federateInterval >= 0 {
		fed := remote.NewFederator(remote.FederatorConfig{
			Clients:  allClients,
			Cluster:  reg.Cluster(),
			Interval: a.federateInterval,
		})
		fed.Start()
		onStop = fed.Stop
	}
	srv := server.NewCatalogConfig(catalog, cfg)
	startDebug(a.debugAddr, srv)
	fmt.Printf("routing %s over %d shard(s), %d replica endpoint(s) on %s%s\n",
		a.clusterName, len(groups), replicas, a.addr, servingNote(cfg))
	if err := serveUntilSignal(a.addr, srv, a.drainTimeout, onStop); err != nil {
		fatal(err)
	}
}

// parseShardServers splits the -shard-servers value into replica groups:
// ";" separates logical shards and "," separates replicas within one.  A
// flat list (no ";") with -replication R > 1 instead groups every R
// consecutive URLs into one shard.
func parseShardServers(s string, replication int) ([][]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("-mode=router requires -shard-servers")
	}
	if replication < 1 {
		return nil, fmt.Errorf("bad -replication %d: want >= 1", replication)
	}
	split := func(s, sep string) []string {
		var out []string
		for _, p := range strings.Split(s, sep) {
			if p = strings.TrimSpace(p); p != "" {
				out = append(out, p)
			}
		}
		return out
	}
	var groups [][]string
	if strings.Contains(s, ";") {
		for _, g := range split(s, ";") {
			if rs := split(g, ","); len(rs) > 0 {
				groups = append(groups, rs)
			}
		}
	} else {
		flat := split(s, ",")
		if len(flat)%replication != 0 {
			return nil, fmt.Errorf("-shard-servers lists %d URL(s), not a multiple of -replication %d", len(flat), replication)
		}
		for i := 0; i < len(flat); i += replication {
			groups = append(groups, flat[i:i+replication])
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
