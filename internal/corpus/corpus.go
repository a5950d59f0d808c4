// Package corpus manages a dataset as a set of shards — each shard an
// independent document + index + engine — behind one queryable façade.
// Every read fans out across shards under one call discipline (scatter.go):
// search merges per-shard ranked matches into a single globally ranked page,
// completion merges candidates by summed weight.
//
// The shard set is mutable while serving: Add/Remove/Reindex build new
// shards off the hot path and publish them with an atomic copy-on-write
// snapshot swap.  Readers pin a snapshot (one atomic pointer load) for the
// life of a request, so the query path takes no locks and every request
// sees a consistent shard set; writers serialize on a mutation mutex.  With
// a directory configured, every publish persists a versioned manifest plus
// per-shard full-index files, so a corpus reopens without reparsing XML.
//
// corpus.Corpus implements core.Backend, so the HTTP server, the REPL and
// the CLI serve a sharded corpus exactly as they serve one engine.
package corpus

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/doc"
	"lotusx/internal/fanout"
	"lotusx/internal/faults"
	"lotusx/internal/metrics"
)

// shard is one immutable storage unit: a parsed document with its engine,
// or — for remote corpora — a ShardBackend speaking to a shard server.
type shard struct {
	name   string
	engine *core.Engine // nil for remote shards
	// backend, when non-nil, overrides the in-process evaluation: the
	// fan-out calls it instead of engine (see backend.go and
	// internal/remote).  Local shards leave it nil and evaluate through the
	// zero-allocation localShard view.
	backend ShardBackend
	// file is the persisted full-index file (base name), "" while unsaved.
	file string
	// delta marks a shard produced by async ingest that the background
	// compactor may merge into a base shard (see compact.go).  Base shards
	// are never rewritten by compaction.
	delta bool
	// latency observes this shard's evaluations in every fan-out, so
	// cross-shard skew (the straggler problem) shows in always-on
	// aggregates; it lives and dies with the shard.
	latency metrics.Histogram
}

// Snapshot is an immutable shard set.  Every query pins one Snapshot and
// evaluates entirely against it; mutations publish new Snapshots and never
// touch old ones.
type Snapshot struct {
	seq    uint64
	shards []*shard // sorted by name
}

// Seq returns the snapshot's publish sequence number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Len returns the number of shards.
func (s *Snapshot) Len() int { return len(s.shards) }

// Names lists the shard names in order.
func (s *Snapshot) Names() []string {
	out := make([]string, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.name
	}
	return out
}

// DeltaCount counts the delta shards awaiting compaction.
func (s *Snapshot) DeltaCount() int {
	n := 0
	for _, sh := range s.shards {
		if sh.delta {
			n++
		}
	}
	return n
}

// ShardPolicy selects what a fan-out does when a shard fails.
type ShardPolicy string

const (
	// PolicyDegrade (the default) marks a failing shard failed and answers
	// from the survivors, flagging the result partial.
	PolicyDegrade ShardPolicy = "degrade"
	// PolicyFailFast cancels sibling evaluations on the first shard error
	// and fails the whole request — the pre-fault-tolerance behavior.
	PolicyFailFast ShardPolicy = "failfast"
)

// ParsePolicy validates a -shard-policy flag value ("" means degrade).
func ParsePolicy(s string) (ShardPolicy, error) {
	switch ShardPolicy(s) {
	case "", PolicyDegrade:
		return PolicyDegrade, nil
	case PolicyFailFast:
		return PolicyFailFast, nil
	}
	return "", fmt.Errorf("corpus: unknown shard policy %q (want %q or %q)", s, PolicyDegrade, PolicyFailFast)
}

// Fault-tolerance defaults; see Tuning.
const (
	defaultBreakerThreshold = 5
	defaultBreakerCooldown  = 30 * time.Second
	// retryBackoff seeds the jittered pause before the single transparent
	// per-shard retry.
	retryBackoff = 2 * time.Millisecond
)

// Tuning holds the fault-tolerance knobs of a corpus; the zero value means
// degrade policy, derived shard budgets, and a 5-failure/30s breaker.
type Tuning struct {
	// Policy is the shard-failure policy; "" means PolicyDegrade.
	Policy ShardPolicy
	// ShardTimeout caps each per-shard evaluation attempt.  0 derives a
	// budget from the request deadline (when one is set); negative disables
	// per-shard budgets entirely.
	ShardTimeout time.Duration
	// BreakerThreshold is the consecutive-failure count that quarantines a
	// shard; 0 means the default (5), negative disables breakers.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped shard stays quarantined before
	// a half-open probe; 0 means the default (30s).
	BreakerCooldown time.Duration
}

// Config tunes a Corpus.
type Config struct {
	// Dir, when non-empty, persists the corpus there (manifest + per-shard
	// full-index files) on every publish.
	Dir string
	// Metrics, when non-nil, receives shard-count, swap, fan-out and merge
	// observations.
	Metrics *metrics.CorpusMetrics
	// Tuning holds the fault-tolerance knobs (shard policy, time budgets,
	// circuit breaker); the zero value is production defaults.
	Tuning Tuning
	// Faults, when non-nil, arms deterministic fault-injection sites on the
	// shard-evaluation and shard-open paths (tests and benches only;
	// production leaves it nil, paying one pointer check per site).
	Faults *faults.Registry
	// Logger receives quarantine and degradation warnings; nil means
	// slog.Default().
	Logger *slog.Logger
}

// Corpus is a mutable, concurrently queryable shard set.
type Corpus struct {
	name   string
	dir    string
	met    *metrics.CorpusMetrics
	tuning Tuning
	health *health // nil when breakers are disabled
	faults *faults.Registry
	log    *slog.Logger
	// loadQuarantined names manifest shards Open quarantined at startup
	// (written once before the corpus is shared; read-only after).
	loadQuarantined []string
	// remote marks a corpus whose shards live behind ShardBackends on other
	// processes (NewRemote): the shard set is fixed at construction and
	// mutators refuse — the data belongs to the shard servers.
	remote bool

	// mu serializes mutations (Add/Remove/Reindex and their persistence);
	// the query path never takes it.
	mu   sync.Mutex
	snap atomic.Pointer[Snapshot]
	// mutating counts publishes in flight — nonzero while a snapshot swap
	// (ingest, remove, reindex rebuild, persistence) is underway.  Readiness
	// probes read it: queries still serve the old snapshot during a mutation,
	// but a load balancer should stop steering fresh traffic at an instance
	// that is mid-reindex.
	mutating atomic.Int32
}

// New returns an empty corpus.
func New(name string, cfg Config) *Corpus {
	c := &Corpus{
		name:   name,
		dir:    cfg.Dir,
		met:    cfg.Metrics,
		tuning: cfg.Tuning,
		faults: cfg.Faults,
		log:    cfg.Logger,
	}
	if c.tuning.Policy == "" {
		c.tuning.Policy = PolicyDegrade
	}
	if c.log == nil {
		c.log = slog.Default()
	}
	c.health = newHealth(c.tuning, c.met)
	if c.met != nil {
		// The metrics registry renders per-shard state without importing
		// corpus; hand it a reader over this corpus's live shards.
		c.met.SetShardProvider(c.shardMetrics)
	}
	c.snap.Store(&Snapshot{})
	return c
}

// Open loads a persisted corpus from cfg.Dir (or dir when cfg.Dir is "")
// without reparsing any XML: the manifest names per-shard full-index files
// that rebuild in one pass each.
//
// Shard files that fail to load with damage confined to the file itself —
// corruption (a torn write), version skew, or the file missing — are
// quarantined (renamed to *.quarantined and logged) and the corpus serves
// the survivors, so one bad file degrades a dataset instead of taking it
// offline.  Environmental failures (permissions, I/O errors) still fail the
// whole Open, as does a manifest whose every shard is unloadable.
func Open(dir string, cfg Config) (*Corpus, error) {
	if cfg.Dir == "" {
		cfg.Dir = dir
	}
	m, err := loadManifest(cfg.Dir)
	if err != nil {
		return nil, err
	}
	name := m.Name
	if name == "" {
		name = filepath.Base(cfg.Dir)
	}
	c := New(name, cfg)
	shards := make([]*shard, 0, len(m.Shards))
	type badShard struct {
		ms  manifestShard
		err error
	}
	var bad []badShard
	for _, ms := range m.Shards {
		e, err := openShardFile(cfg.Dir, ms.File, c.faults)
		if err != nil {
			if !quarantineable(err) {
				return nil, err
			}
			bad = append(bad, badShard{ms: ms, err: err})
			continue
		}
		shards = append(shards, &shard{name: ms.Name, engine: e, file: ms.File, delta: ms.Delta})
	}
	if len(shards) == 0 && len(m.Shards) > 0 {
		// Nothing survived: refuse the corpus (and leave the files where they
		// are — an all-corrupt directory is an operator problem, not a
		// degradation) with the first cause in the chain.
		return nil, fmt.Errorf("corpus: every shard of %s failed to load: %w", cfg.Dir, bad[0].err)
	}
	for _, b := range bad {
		quarantineShardFile(cfg.Dir, b.ms.File, b.err, c.log)
		c.loadQuarantined = append(c.loadQuarantined, b.ms.Name)
	}
	sort.Strings(c.loadQuarantined)
	sortShards(shards)
	snap := &Snapshot{seq: m.Seq, shards: shards}
	c.snap.Store(snap)
	if c.met != nil {
		c.met.SetShards(len(shards))
		c.met.SetDeltaShards(snap.DeltaCount())
		c.updateResident(shards)
	}
	return c, nil
}

// FromDocument builds a corpus by splitting d into parts shards (see
// SplitDocument) named after the corpus.
func FromDocument(name string, d *doc.Document, parts int, cfg Config) (*Corpus, error) {
	c := New(name, cfg)
	if err := c.addSplit(name, d, parts, false); err != nil {
		return nil, err
	}
	return c, nil
}

// NewRemote builds a read-only corpus whose shards are the given backends —
// typically internal/remote.Shard clients over shard servers.  The whole
// fan-out stack (policy, budgets, retries, breakers, partial envelopes,
// merge) applies to them exactly as to local shards; only mutation and
// persistence are refused, since the data belongs to the shard servers.
func NewRemote(name string, backends []ShardBackend, cfg Config) (*Corpus, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("corpus: remote corpus %s needs at least one shard backend", name)
	}
	if cfg.Dir != "" {
		return nil, fmt.Errorf("corpus: remote corpus %s cannot persist (Dir must be empty)", name)
	}
	c := New(name, cfg)
	c.remote = true
	shards := make([]*shard, len(backends))
	seen := make(map[string]bool, len(backends))
	for i, be := range backends {
		sn := be.ShardName()
		if err := validShardName(sn); err != nil {
			return nil, err
		}
		if seen[sn] {
			return nil, fmt.Errorf("corpus: duplicate remote shard name %q in %s", sn, name)
		}
		seen[sn] = true
		shards[i] = &shard{name: sn, backend: be}
	}
	sortShards(shards)
	c.snap.Store(&Snapshot{seq: 1, shards: shards})
	if c.met != nil {
		c.met.SetShards(len(shards))
	}
	return c, nil
}

// Remote reports whether this corpus fans out to remote shard backends.
func (c *Corpus) Remote() bool { return c.remote }

// Name returns the corpus name.
func (c *Corpus) Name() string { return c.name }

// Dir returns the persistence directory, "" for an in-memory corpus.
func (c *Corpus) Dir() string { return c.dir }

// Snapshot pins the current shard set: one atomic load, no locks.  The
// returned snapshot stays valid (and immutable) however many swaps follow.
func (c *Corpus) Snapshot() *Snapshot { return c.snap.Load() }

// Seq returns the current snapshot's sequence number.
func (c *Corpus) Seq() uint64 { return c.Snapshot().seq }

// DeltaShards counts the current snapshot's delta shards — the compaction
// backlog the ingest pipeline watches.
func (c *Corpus) DeltaShards() int { return c.Snapshot().DeltaCount() }

// Generation implements core.Backend: every publish (Add, Remove, Reindex,
// AddSplit) bumps the snapshot sequence, so generation-keyed cache entries
// from before a mutation become unreachable the instant it lands.
func (c *Corpus) Generation() uint64 { return c.Seq() }

// updateResident publishes the snapshot's resident index bytes
// (index.ResidentBytes summed over shards) to the corpus gauge.  Remote
// shards have no local engine and contribute nothing.  Caller holds
// c.met != nil.
func (c *Corpus) updateResident(shards []*shard) {
	var resident int64
	for _, sh := range shards {
		if sh.engine != nil {
			resident += sh.engine.Index().ResidentBytes()
		}
	}
	c.met.SetResident(resident)
}

// sortShards orders shards by name for deterministic iteration and merges.
func sortShards(shards []*shard) {
	sort.Slice(shards, func(i, j int) bool { return shards[i].name < shards[j].name })
}

// validShardName rejects names that would break manifest or route parsing.
func validShardName(name string) error {
	if name == "" || strings.ContainsAny(name, " \t\n") {
		return fmt.Errorf("corpus: invalid shard name %q", name)
	}
	return nil
}

// Add builds a shard from d off the hot path and publishes a snapshot with
// it.  An existing shard of the same name — or a "name/NNN" split group left
// by an earlier AddSplit — is replaced atomically, so re-ingesting under a
// name never duplicates its records.
func (c *Corpus) Add(name string, d *doc.Document) error {
	if err := validShardName(name); err != nil {
		return err
	}
	// Index construction is the expensive part — do it before taking the
	// mutation lock so concurrent readers and other writers never wait on
	// parsing or index builds.
	engine := core.FromDocument(d)
	return c.publish(func(shards []*shard) ([]*shard, error) {
		return replaceShard(shards, &shard{name: name, engine: engine}), nil
	})
}

// AddSplit splits d at top-level record boundaries into parts shards named
// "name/000", "name/001", ... and publishes them in one swap.  Existing
// shards under the same name prefix are replaced.
func (c *Corpus) AddSplit(name string, d *doc.Document, parts int) error {
	return c.addSplit(name, d, parts, false)
}

// AddDeltaSplit is AddSplit with the resulting shards marked as deltas:
// small async-ingested shards the background compactor (CompactDeltas) may
// later fold into a compacted base shard off the read path.  Queries see
// delta shards exactly like base shards — they only differ in lifecycle.
func (c *Corpus) AddDeltaSplit(name string, d *doc.Document, parts int) error {
	return c.addSplit(name, d, parts, true)
}

func (c *Corpus) addSplit(name string, d *doc.Document, parts int, delta bool) error {
	if err := validShardName(name); err != nil {
		return err
	}
	fresh, err := buildShards(name, d, parts, delta)
	if err != nil {
		return err
	}
	return c.publish(func(shards []*shard) ([]*shard, error) {
		next := removeByName(shards, name) // drop same-name shard and group
		return append(next, fresh...), nil
	})
}

// buildShards splits d and indexes each part (the expensive work, done
// before the caller takes the mutation lock): one shard named name for an
// unsplit document, or a "name/NNN" group.  Parts are independent from the
// split plan on — build, index, guide — so they build on every core; names
// and order depend only on the plan.
func buildShards(name string, d *doc.Document, parts int, delta bool) ([]*shard, error) {
	plan := planSplit(d, parts)
	if plan == nil {
		return []*shard{{name: name, engine: core.FromDocument(d), delta: delta}}, nil
	}
	out := make([]*shard, len(plan.groups))
	err := fanout.Do(len(out), func(i int) error {
		sd, err := plan.part(i)
		if err != nil {
			return err
		}
		out[i] = &shard{name: fmt.Sprintf("%s/%03d", name, i), engine: core.FromDocument(sd), delta: delta}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// SetSplit replaces the entire shard set with the split of d in one swap —
// the "re-ingest the whole dataset" operation.  Whatever shards existed
// before, under any name, are gone after the publish; a persisted corpus
// keeps its directory and its monotonically increasing sequence, so
// re-ingesting over a live corpus never races its on-disk files.
func (c *Corpus) SetSplit(name string, d *doc.Document, parts int) error {
	if err := validShardName(name); err != nil {
		return err
	}
	fresh, err := buildShards(name, d, parts, false)
	if err != nil {
		return err
	}
	return c.publish(func([]*shard) ([]*shard, error) {
		return fresh, nil
	})
}

// Remove drops the shard named name — or, when name is a split-group
// prefix, every "name/NNN" shard — in one swap.
func (c *Corpus) Remove(name string) error {
	return c.publish(func(shards []*shard) ([]*shard, error) {
		next := removeByName(shards, name)
		if len(next) == len(shards) {
			return nil, fmt.Errorf("corpus: no shard %q in %s", name, c.name)
		}
		return next, nil
	})
}

// Reindex rebuilds the named shard (or split group; "" means every shard)
// from its in-memory document — fresh index, guide, tries — and publishes
// the rebuilt engines in one swap.  Persisted corpora rewrite the shard
// files, which is how a version-skewed corpus heals after an upgrade.
func (c *Corpus) Reindex(name string) error {
	return c.publish(func(shards []*shard) ([]*shard, error) {
		var hits []int
		for i, sh := range shards {
			if name == "" || sh.name == name || strings.HasPrefix(sh.name, name+"/") {
				hits = append(hits, i)
			}
		}
		if len(hits) == 0 && name != "" {
			return nil, fmt.Errorf("corpus: no shard %q in %s", name, c.name)
		}
		err := fanout.Do(len(hits), func(h int) error {
			old := shards[hits[h]]
			shards[hits[h]] = &shard{name: old.name, engine: core.FromDocument(old.engine.Document()), delta: old.delta}
			return nil
		})
		return shards, err
	})
}

// replaceShard swaps in sh, replacing a same-named shard — or a split group
// under sh's name, so Add("s") after AddSplit("s", ..., N) cannot leave the
// old "s/NNN" shards answering alongside the new whole document — or
// appending.
func replaceShard(shards []*shard, sh *shard) []*shard {
	return append(removeByName(shards, sh.name), sh)
}

// removeByName filters out the shard named name and any "name/NNN" group
// members.
func removeByName(shards []*shard, name string) []*shard {
	out := make([]*shard, 0, len(shards))
	for _, sh := range shards {
		if sh.name == name || strings.HasPrefix(sh.name, name+"/") {
			continue
		}
		out = append(out, sh)
	}
	return out
}

// publish applies mutate to the current shard list and swaps the result in
// as a new snapshot: copy-on-write, one writer at a time, persisted before
// the swap so a reopened corpus never regresses past what queries saw.
func (c *Corpus) publish(mutate func([]*shard) ([]*shard, error)) error {
	if c.remote {
		return fmt.Errorf("corpus: %s is remote (read-only): mutate the shard servers instead", c.name)
	}
	c.mutating.Add(1)
	defer c.mutating.Add(-1)
	c.mu.Lock()
	defer c.mu.Unlock()

	cur := c.snap.Load()
	next, err := mutate(append([]*shard(nil), cur.shards...))
	if err != nil {
		return err
	}
	sortShards(next)
	ns := &Snapshot{seq: cur.seq + 1, shards: next}

	if c.dir != "" {
		if err := c.persist(ns); err != nil {
			return fmt.Errorf("corpus: persisting snapshot %d: %w", ns.seq, err)
		}
	}
	c.snap.Store(ns)
	if c.met != nil {
		c.met.SetShards(len(ns.shards))
		c.met.SetDeltaShards(ns.DeltaCount())
		c.updateResident(ns.shards)
		c.met.Swapped()
	}
	if c.dir != "" {
		live := map[string]bool{}
		for _, sh := range ns.shards {
			live[sh.file] = true
		}
		cleanShardFiles(c.dir, live)
	}
	return nil
}

// persist writes the snapshot's unsaved shards and the manifest.  Shard
// files are copy-on-write: already-saved shards keep their files, new or
// rebuilt ones get fresh names, and the manifest rename publishes the set
// atomically.
func (c *Corpus) persist(ns *Snapshot) error {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}
	var unsaved []int
	for i, sh := range ns.shards {
		if sh.file == "" {
			unsaved = append(unsaved, i)
		}
	}
	// Each file is encoded, written and fsynced on its own, so fresh shards
	// overlap their disk waits as well as their encoding.
	err := fanout.Do(len(unsaved), func(u int) error {
		i := unsaved[u]
		file, err := writeShardFile(c.dir, ns.seq, i, ns.shards[i].engine)
		ns.shards[i].file = file
		return err
	})
	if err != nil {
		return err
	}
	m := &manifest{Version: manifestVersion, Name: c.name, Seq: ns.seq}
	for _, sh := range ns.shards {
		m.Shards = append(m.Shards, manifestShard{
			Name:  sh.name,
			File:  sh.file,
			Nodes: sh.engine.Document().Len(),
			Delta: sh.delta,
		})
	}
	return saveManifest(c.dir, m)
}

// Ready reports whether the corpus should receive fresh traffic: nil when a
// snapshot is loaded and no mutation is in flight, an error naming the
// condition otherwise.  GET /readyz on the debug listener aggregates this
// over every serving backend.
func (c *Corpus) Ready() error {
	if n := c.mutating.Load(); n > 0 {
		return fmt.Errorf("corpus %s: %d mutation(s) in flight", c.name, n)
	}
	if c.Snapshot().Len() == 0 {
		return fmt.Errorf("corpus %s: no shards loaded", c.name)
	}
	return nil
}

// Shard returns the engine of the named shard in the current snapshot.
func (c *Corpus) Shard(name string) (*core.Engine, error) {
	for _, sh := range c.Snapshot().shards {
		if sh.name == name {
			if sh.engine == nil {
				return nil, fmt.Errorf("corpus: shard %q of %s is remote (no local engine)", name, c.name)
			}
			return sh.engine, nil
		}
	}
	return nil, fmt.Errorf("corpus: no shard %q in %s", name, c.name)
}

// ---------------------------------------------------------- core.Backend

// Compile-time check: a corpus serves wherever an engine does.
var _ core.Backend = (*Corpus)(nil)

// Info implements core.Backend, aggregating over the pinned snapshot.
// Remote shards contribute through the optional ShardInfoer interface
// (best-effort: an unreachable shard server just reports zero sizes, since
// Info feeds banners and dashboards, not answers).
func (c *Corpus) Info() core.BackendInfo {
	snap := c.Snapshot()
	kind := "corpus"
	if c.remote {
		kind = "remote-corpus"
	}
	info := core.BackendInfo{
		Name:        c.name,
		Kind:        kind,
		Shards:      len(snap.shards),
		DeltaShards: snap.DeltaCount(),
	}
	tags := map[string]struct{}{}
	remoteTags := 0
	for _, sh := range snap.shards {
		if sh.engine == nil {
			if si, ok := sh.backend.(ShardInfoer); ok {
				ri, err := si.ShardInfo()
				if err != nil {
					continue
				}
				info.Nodes += ri.Nodes
				info.GuidePaths += ri.GuidePaths
				info.Valued += ri.Valued
				// Distinct tags cannot be deduped across the wire; the summed
				// count is an upper bound, good enough for a banner.
				remoteTags += ri.Tags
			}
			continue
		}
		st := sh.engine.Stats()
		info.Nodes += st.Nodes
		info.GuidePaths += st.GuidePaths
		info.Valued += st.Valued
		d := sh.engine.Document()
		for id := 0; id < d.Tags().Len(); id++ {
			tags[d.Tags().Name(doc.TagID(id))] = struct{}{}
		}
	}
	info.Tags = len(tags) + remoteTags
	return info
}

// ShardInfoer is the optional interface a ShardBackend implements to
// contribute sizes to Corpus.Info (internal/remote.Shard fetches the shard
// server's /api/v1/stats, best-effort with a short budget).
type ShardInfoer interface {
	ShardInfo() (core.BackendInfo, error)
}

// Engines implements core.Backend: the pinned snapshot's shard engines.
// Remote shards have no local engine and are skipped — per-document views
// (/node, /guide) must be asked of the shard server that owns the document.
func (c *Corpus) Engines() []core.NamedEngine {
	snap := c.Snapshot()
	out := make([]core.NamedEngine, 0, len(snap.shards))
	for _, sh := range snap.shards {
		if sh.engine == nil {
			continue
		}
		out = append(out, core.NamedEngine{Name: sh.name, Engine: sh.engine})
	}
	return out
}
