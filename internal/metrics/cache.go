package metrics

import (
	"sync"
	"sync/atomic"
)

// CacheMetrics aggregates one hot-path cache (internal/cache): hit, miss,
// eviction and singleflight-wait counters plus a size provider the cache
// installs so snapshots report live entry and byte counts.  All counters are
// safe for concurrent use on the query path.
type CacheMetrics struct {
	Hits              atomic.Int64 // lookups answered from a stored entry
	Misses            atomic.Int64 // lookups that ran the computation
	Evictions         atomic.Int64 // entries dropped to stay within the byte budget
	SingleflightWaits atomic.Int64 // lookups that waited on an identical in-flight computation

	// sizeMu guards sizeFn, the cache-installed provider of live entry and
	// byte counts (the metrics package cannot import cache).
	sizeMu sync.RWMutex
	sizeFn func() (entries, bytes int64)
}

// SetSizeProvider installs the callback that reports the cache's live entry
// and byte counts for snapshots.
func (c *CacheMetrics) SetSizeProvider(fn func() (entries, bytes int64)) {
	c.sizeMu.Lock()
	c.sizeFn = fn
	c.sizeMu.Unlock()
}

// CacheSnapshot is the JSON shape of one cache's metrics.
type CacheSnapshot struct {
	Hits              int64 `json:"hits" prom:"lotusx_cache_hits_total,counter" help:"Cache lookups answered from a stored entry."`
	Misses            int64 `json:"misses" prom:"lotusx_cache_misses_total,counter" help:"Cache lookups that ran the computation."`
	Evictions         int64 `json:"evictions,omitempty" prom:"lotusx_cache_evictions_total,counter" help:"Cache entries dropped to stay within the byte budget."`
	SingleflightWaits int64 `json:"singleflightWaits,omitempty" prom:"lotusx_cache_singleflight_waits_total,counter" help:"Cache lookups that waited on an identical in-flight computation."`
	Entries           int64 `json:"entries" prom:"lotusx_cache_entries,gauge" help:"Live entries stored in the cache."`
	Bytes             int64 `json:"bytes" prom:"lotusx_cache_bytes,gauge" help:"Byte cost of the entries stored in the cache."`
}

// snapshot materializes the cache's JSON view; the sizes read zero without a
// provider.
func (c *CacheMetrics) snapshot() CacheSnapshot {
	s := CacheSnapshot{
		Hits:              c.Hits.Load(),
		Misses:            c.Misses.Load(),
		Evictions:         c.Evictions.Load(),
		SingleflightWaits: c.SingleflightWaits.Load(),
	}
	c.sizeMu.RLock()
	fn := c.sizeFn
	c.sizeMu.RUnlock()
	if fn != nil {
		s.Entries, s.Bytes = fn()
	}
	return s
}
