package metrics

import (
	"sync"
	"sync/atomic"
)

// CorpusMetrics aggregates one sharded corpus: a shard-count gauge,
// snapshot-swap and search counters, and latency histograms for the two
// phases the sharded query path adds over a single engine — the parallel
// per-shard fan-out and the global result merge.  Per-shard breaker states
// and latencies come from the corpus itself (SetShardProvider), so they
// cover exactly the live snapshot's shards.  All fields are safe for
// concurrent use on the query path.
type CorpusMetrics struct {
	shards atomic.Int64
	deltas atomic.Int64 // delta shards awaiting compaction
	// residentBytes is what the snapshot's local shard indexes hold
	// (index.ResidentBytes, summed).
	residentBytes atomic.Int64
	Swaps         atomic.Int64 // snapshot publishes (Add/Remove/compaction)
	Searches      atomic.Int64 // fan-out searches served
	Fanout        Histogram    // wall-clock of the parallel per-shard phase
	Merge         Histogram    // wall-clock of the global merge + render phase

	// Fault-tolerance counters (see internal/corpus: degrade policy and the
	// per-shard circuit breakers).
	Partial       atomic.Int64 // searches answered with partial results
	ShardFailures atomic.Int64 // per-shard evaluation failures (incl. quarantine skips)
	BreakerTrips  atomic.Int64 // closed→open (and failed-probe) breaker transitions

	// providerMu guards provider, the corpus-installed reader of its live
	// shards' breaker states and latencies (the metrics package cannot
	// import corpus).
	providerMu sync.RWMutex
	provider   func() (map[string]ShardHealth, map[string]LatencySnapshot)
}

// ShardHealth is the JSON view of one shard's circuit breaker.
type ShardHealth struct {
	// State is "closed" (serving), "open" (quarantined) or "half-open"
	// (cooldown expired, one probe in flight).
	State string `json:"state"`
	// ConsecutiveFailures counts failures since the last success.
	ConsecutiveFailures int `json:"consecutiveFailures,omitempty"`
	// Trips counts closed→open transitions (including failed probes).
	Trips int64 `json:"trips,omitempty"`
	// RetryInMS, for an open breaker, is the cooldown remaining before a
	// half-open probe is allowed.
	RetryInMS float64 `json:"retryInMs,omitempty"`
	// LastError is the failure that tripped or last advanced the breaker.
	LastError string `json:"lastError,omitempty"`
}

// SetShardProvider installs the callback that reports, for the shards of
// the corpus's current snapshot, each one's breaker state and its query
// latency (shards not yet searched may be left out); nil uninstalls it.
func (c *CorpusMetrics) SetShardProvider(fn func() (map[string]ShardHealth, map[string]LatencySnapshot)) {
	c.providerMu.Lock()
	c.provider = fn
	c.providerMu.Unlock()
}

// SetShards records the shard count of the current snapshot.
func (c *CorpusMetrics) SetShards(n int) { c.shards.Store(int64(n)) }

// SetDeltaShards records the delta-shard count of the current snapshot —
// the compaction backlog.
func (c *CorpusMetrics) SetDeltaShards(n int) { c.deltas.Store(int64(n)) }

// SetResident records the resident bytes of the snapshot's local shard
// indexes.  Corpora publish it on every snapshot swap.
func (c *CorpusMetrics) SetResident(resident int64) {
	c.residentBytes.Store(resident)
}

// Swapped tallies one snapshot publish.
func (c *CorpusMetrics) Swapped() { c.Swaps.Add(1) }

// CorpusSnapshot is the JSON shape of one corpus's metrics.
type CorpusSnapshot struct {
	Shards int64 `json:"shards" prom:"lotusx_corpus_shards,gauge" help:"Shard count of the current corpus snapshot."`
	// DeltaShards counts async-ingested delta shards awaiting compaction.
	DeltaShards int64           `json:"deltaShards,omitempty" prom:"lotusx_corpus_delta_shards,gauge" help:"Async-ingested delta shards awaiting compaction."`
	Swaps       int64           `json:"swaps" prom:"lotusx_corpus_swaps_total,counter" help:"Snapshot publishes (ingest, remove, compaction)."`
	Searches    int64           `json:"searches" prom:"lotusx_corpus_searches_total,counter" help:"Fan-out searches served."`
	Fanout      LatencySnapshot `json:"fanout" prom:"lotusx_corpus_fanout_latency_seconds,histogram" help:"Wall-clock of the parallel per-shard fan-out phase."`
	Merge       LatencySnapshot `json:"merge" prom:"lotusx_corpus_merge_latency_seconds,histogram" help:"Wall-clock of the global merge and render phase."`
	// PartialSearches counts fan-outs answered from a strict subset of
	// shards under the degrade policy.
	PartialSearches int64 `json:"partialSearches,omitempty" prom:"lotusx_corpus_partial_searches_total,counter" help:"Searches answered from a strict subset of shards (degrade policy)."`
	// ShardFailures counts per-shard evaluation failures, including
	// breaker-quarantine skips.
	ShardFailures int64 `json:"shardFailures,omitempty" prom:"lotusx_corpus_shard_failures_total,counter" help:"Per-shard evaluation failures, including breaker-quarantine skips."`
	// BreakerTrips counts circuit-breaker closed→open transitions.
	BreakerTrips int64 `json:"breakerTrips,omitempty" prom:"lotusx_corpus_breaker_trips_total,counter" help:"Circuit-breaker closed-to-open transitions."`
	// QuarantinedShards counts the shards in Health whose breaker is not
	// closed right now.
	QuarantinedShards int64 `json:"quarantinedShards,omitempty" prom:"lotusx_corpus_quarantined_shards,gauge" help:"Shards whose circuit breaker is currently not closed."`
	// ResidentBytes is the summed resident size of the snapshot's local
	// shard indexes.  Absent for remote corpora.
	ResidentBytes int64 `json:"residentBytes,omitempty" prom:"lotusx_corpus_resident_bytes,gauge" help:"Resident index-substrate bytes across the snapshot's local shards."`
	// Health reports each shard's circuit-breaker state, keyed by shard
	// name; absent when the corpus has not installed a shard provider.
	Health map[string]ShardHealth `json:"health,omitempty"`
	// ShardLatency reports per-shard query latency for the current
	// snapshot's shards, keyed by shard name; a shard appears from its
	// first fan-out on.
	ShardLatency map[string]LatencySnapshot `json:"shardLatency,omitempty" prom:"lotusx_corpus_shard_latency_seconds,histogram,label=shard" help:"Per-shard query latency within the fan-out."`
}

// snapshot materializes the corpus's JSON view.
func (c *CorpusMetrics) snapshot() CorpusSnapshot {
	s := CorpusSnapshot{
		Shards:          c.shards.Load(),
		DeltaShards:     c.deltas.Load(),
		Swaps:           c.Swaps.Load(),
		Searches:        c.Searches.Load(),
		Fanout:          c.Fanout.Snapshot(),
		Merge:           c.Merge.Snapshot(),
		PartialSearches: c.Partial.Load(),
		ShardFailures:   c.ShardFailures.Load(),
		BreakerTrips:    c.BreakerTrips.Load(),
		ResidentBytes:   c.residentBytes.Load(),
	}
	c.providerMu.RLock()
	fn := c.provider
	c.providerMu.RUnlock()
	if fn != nil {
		s.Health, s.ShardLatency = fn()
	}
	for _, h := range s.Health {
		if h.State != "closed" {
			s.QuarantinedShards++
		}
	}
	return s
}
