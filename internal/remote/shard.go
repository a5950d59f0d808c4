package remote

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lotusx/internal/cache"
	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/doc"
	"lotusx/internal/join"
	"lotusx/internal/metrics"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// Hedging parameters.  The adaptive delay tracks the p95 of recent
// successful search latencies: hedging at p95 bounds the duplicate-work
// rate at ~5% of searches while cutting the tail that sits above it (the
// "tail at scale" recipe).  The clamp keeps a pathological sample window
// from hedging never (ceiling) or in a busy loop (floor); an empty window
// hedges at the floor.
const (
	hedgeSamples = 64
	hedgeFloor   = time.Millisecond
	hedgeCeil    = 2 * time.Second
)

// latencyRing is a fixed window of recent successful search latencies.
type latencyRing struct {
	mu  sync.Mutex
	buf [hedgeSamples]time.Duration
	n   int // total observations, monotonically increasing
}

func (r *latencyRing) observe(d time.Duration) {
	r.mu.Lock()
	r.buf[r.n%hedgeSamples] = d
	r.n++
	r.mu.Unlock()
}

// p95 returns the window's 95th percentile, 0 while it is empty.
func (r *latencyRing) p95() time.Duration {
	r.mu.Lock()
	n := r.n
	if n > hedgeSamples {
		n = hedgeSamples
	}
	s := make([]time.Duration, n)
	copy(s, r.buf[:n])
	r.mu.Unlock()
	if n == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[n*95/100]
}

// ShardOptions tunes one remote shard beyond its name and replicas.
type ShardOptions struct {
	// HedgeDelay controls search hedging: 0 adapts to the observed p95
	// latency, a positive value fixes the delay, a negative value disables
	// hedging (error failover still applies).
	HedgeDelay time.Duration
	// Metrics receives hedge/failover/error counters; nil discards.  Share
	// one RemoteMetrics across the shards of a cluster — the per-replica
	// histograms inside it are keyed by replica name.
	Metrics *metrics.RemoteMetrics
}

// Shard is one logical corpus shard served by R replica shard servers.  It
// implements corpus.ShardBackend: the corpus fan-out treats it exactly like
// a local shard, while internally each search races replicas — round-robin
// primary, hedge after the delay, immediate failover on error, first
// success wins and cancels the losers.
type Shard struct {
	name     string
	replicas []*Client
	hedge    time.Duration
	met      *metrics.RemoteMetrics
	rr       atomic.Uint64
	lat      latencyRing
}

var (
	_ corpus.ShardBackend = (*Shard)(nil)
	_ corpus.ShardInfoer  = (*Shard)(nil)
)

// NewShard builds a logical shard over its replica clients.  Every replica
// must serve identical data (same document slice, same index build); the
// shard assumes interchangeability and never reconciles answers.
func NewShard(name string, replicas []*Client, opts ShardOptions) (*Shard, error) {
	if name == "" {
		return nil, fmt.Errorf("remote: shard needs a name")
	}
	if len(replicas) == 0 {
		return nil, fmt.Errorf("remote: shard %s needs at least one replica", name)
	}
	return &Shard{
		name:     name,
		replicas: replicas,
		hedge:    opts.HedgeDelay,
		met:      opts.Metrics,
	}, nil
}

// ShardName implements corpus.ShardBackend.
func (s *Shard) ShardName() string { return s.name }

// hedgeDelay resolves the current hedge delay; ok is false when hedging is
// disabled.
func (s *Shard) hedgeDelay() (time.Duration, bool) {
	switch {
	case s.hedge < 0:
		return 0, false
	case s.hedge > 0:
		return s.hedge, true
	}
	p := s.lat.p95()
	if p < hedgeFloor {
		p = hedgeFloor
	}
	if p > hedgeCeil {
		p = hedgeCeil
	}
	return p, true
}

// rotation returns the replicas starting at the round-robin primary — the
// launch order for this call's attempts.
func (s *Shard) rotation() []*Client {
	n := len(s.replicas)
	start := int(s.rr.Add(1)-1) % n
	out := make([]*Client, n)
	for i := range out {
		out[i] = s.replicas[(start+i)%n]
	}
	return out
}

// SearchShard implements corpus.ShardBackend: one replica race per search.
func (s *Shard) SearchShard(ctx context.Context, q *twig.Query, opts core.SearchOptions) (*corpus.ShardPage, error) {
	if s.met != nil {
		s.met.Searches.Add(1)
	}
	req := SearchRequest{
		Query:      q.String(),
		K:          clampK(opts.K),
		Rewrite:    opts.Rewrite,
		SnippetMax: opts.SnippetMax,
	}
	if opts.Algorithm != "" {
		req.Algorithm = string(opts.Algorithm)
	}
	// Traced fan-outs ask replicas for their span trees: in debug mode
	// (?debug=trace, recognizable by the cache bypass it set) the replica
	// also bypasses its caches to measure the raw pipeline; in the always-on
	// tail-sampling mode the ask is passive — the replica serves through its
	// caches and the trace just rides along.
	sp := obs.FromContext(ctx)
	mode := TraceOff
	if sp != nil {
		if cache.Bypassed(ctx) {
			mode = TraceDebug
		} else {
			mode = TraceSample
		}
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type attempt struct {
		page    *SearchPage
		err     error
		replica string
		hedged  bool
		dur     time.Duration
	}
	order := s.rotation()
	ch := make(chan attempt, len(order))
	next := 0
	launch := func(hedged bool) bool {
		if next >= len(order) {
			return false
		}
		c := order[next]
		next++
		go func() {
			asp := sp.Child("rpc")
			asp.Set("replica", c.Name())
			if hedged {
				asp.Set("hedged", "true")
			}
			start := time.Now()
			page, err := c.Search(rctx, req, mode)
			asp.SetErr(err)
			asp.End()
			ch <- attempt{page: page, err: err, replica: c.Name(), hedged: hedged, dur: time.Since(start)}
		}()
		return true
	}
	launch(false)
	inflight := 1
	hedgeFired := false

	var timerC <-chan time.Time
	if d, ok := s.hedgeDelay(); ok && len(order) > 1 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timerC = timer.C
	}

	var errs []error
	for inflight > 0 {
		select {
		case <-timerC:
			timerC = nil // at most one hedge per search
			if launch(true) {
				inflight++
				hedgeFired = true
				if s.met != nil {
					s.met.HedgesFired.Add(1)
				}
			}
		case a := <-ch:
			inflight--
			if a.err == nil {
				cancel() // the winner is decided; stop the losers mid-flight
				s.lat.observe(a.dur)
				if hedgeFired {
					if s.met != nil {
						if a.hedged {
							s.met.HedgeWins.Add(1)
						} else {
							s.met.HedgeLosses.Add(1)
						}
					}
					// The outcome lands on the shard span so slow-query logs
					// and the trace store can report hedge fired/won without
					// re-deriving it from rpc children.
					if a.hedged {
						sp.Set("hedge", "won")
					} else {
						sp.Set("hedge", "lost")
					}
				}
				if mode != TraceOff && a.page.Trace != nil {
					sp.Graft(a.page.Trace)
				}
				return s.toPage(a.page), nil
			}
			errs = append(errs, fmt.Errorf("replica %s: %w", a.replica, a.err))
			// A context casualty with the caller already dead says nothing
			// about the replica — don't count it against the cluster.
			if s.met != nil && !(isCtxErr(a.err) && ctx.Err() != nil) {
				s.met.RPCErrors.Add(1)
			}
			// Fast failover: don't wait for the hedge timer when a replica
			// has already said no.  Each replica is tried at most once per
			// search, so a call makes at most R attempts.
			if ctx.Err() == nil && launch(a.hedged) {
				inflight++
				if s.met != nil {
					s.met.Failovers.Add(1)
				}
			}
		}
	}
	return nil, errors.Join(errs...)
}

// toPage converts a wire page into the merge's ShardPage.  Snippets and
// highlights were rendered by the shard server, so Render just replays
// them; answers from a sub-sharded replica keep their sub-shard scope as
// "shard/sub" (matching the PartialShards naming).
func (s *Shard) toPage(w *SearchPage) *corpus.ShardPage {
	page := &corpus.ShardPage{
		Exact:         w.Exact,
		Total:         w.Total,
		RewritesTried: w.Rewrites,
		Algorithm:     join.Algorithm(w.Algorithm),
		Answers:       make([]corpus.ShardAnswer, len(w.Answers)),
	}
	if w.Partial {
		page.PartialShards = w.FailedShards
		if len(page.PartialShards) == 0 {
			page.PartialShards = []string{"unknown"}
		}
	}
	name := s.name
	for i, a := range w.Answers {
		a := a
		hitShard := name
		if a.Shard != "" {
			hitShard = name + "/" + a.Shard
		}
		page.Answers[i] = corpus.ShardAnswer{
			Node:    doc.NodeID(a.Node),
			Score:   a.Score,
			Penalty: a.Penalty,
			Render: func(int) core.Hit {
				return core.Hit{
					Shard:      hitShard,
					Node:       doc.NodeID(a.Node),
					Path:       a.Path,
					Score:      a.Score,
					Snippet:    a.Snippet,
					Highlights: a.Highlights,
					Rewrite:    a.Rewrite,
					Penalty:    a.Penalty,
				}
			},
		}
	}
	return page
}

// failover walks the rotation sequentially until fn succeeds — the
// completion/explain path, where a duplicate in-flight scan is not worth
// the cost hedging pays for search tails.
func (s *Shard) failover(ctx context.Context, fn func(c *Client) error) error {
	var errs []error
	order := s.rotation()
	for i, c := range order {
		err := fn(c)
		if err == nil {
			return nil
		}
		errs = append(errs, fmt.Errorf("replica %s: %w", c.Name(), err))
		if s.met != nil && !(isCtxErr(err) && ctx.Err() != nil) {
			s.met.RPCErrors.Add(1)
		}
		if ctx.Err() != nil {
			break
		}
		if s.met != nil && i < len(order)-1 {
			s.met.Failovers.Add(1)
		}
	}
	return errors.Join(errs...)
}

// CompleteTags implements corpus.ShardBackend over the wire: the anchor
// node is transported as its root-to-anchor chain (complete.AnchorChain),
// which the shard server re-parses into the same position.
func (s *Shard) CompleteTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, prefix string, k int) ([]complete.Candidate, error) {
	path := wirePath(q, anchor)
	var out []complete.Candidate
	err := s.failover(ctx, func(c *Client) error {
		cands, err := c.Complete(ctx, "tag", path, axis, prefix, k)
		out = cands
		return err
	})
	return out, err
}

// CompleteValues implements corpus.ShardBackend.
func (s *Shard) CompleteValues(ctx context.Context, q *twig.Query, focus int, prefix string, k int) ([]complete.Candidate, error) {
	path := wirePath(q, focus)
	var out []complete.Candidate
	err := s.failover(ctx, func(c *Client) error {
		cands, err := c.Complete(ctx, "value", path, twig.Child, prefix, k)
		out = cands
		return err
	})
	return out, err
}

// ExplainTags implements corpus.ShardBackend.
func (s *Shard) ExplainTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, tag string, max int) ([]complete.Occurrence, error) {
	path := wirePath(q, anchor)
	var out []complete.Occurrence
	err := s.failover(ctx, func(c *Client) error {
		occs, err := c.Explain(ctx, path, axis, tag, max)
		out = occs
		return err
	})
	return out, err
}

// ShardInfo implements corpus.ShardInfoer for GET /api/v1/stats
// aggregation: best-effort, first replica to answer.
func (s *Shard) ShardInfo() (core.BackendInfo, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var info core.BackendInfo
	err := s.failover(ctx, func(c *Client) error {
		i, err := c.Stats(ctx)
		info = i
		return err
	})
	if err != nil {
		return core.BackendInfo{}, err
	}
	info.Name = s.name
	if info.Kind == "" {
		info.Kind = "engine"
	}
	return info, nil
}

// ShardStatus is the cluster-status view of one shard (GET /api/v1/cluster).
type ShardStatus struct {
	Name     string   `json:"name"`
	Replicas []string `json:"replicas"`
	// Hedging reports whether search hedging is enabled; HedgeDelayMS is
	// the delay currently in effect (adaptive p95 or the fixed setting).
	Hedging      bool    `json:"hedging"`
	HedgeDelayMS float64 `json:"hedgeDelayMs"`
}

// Status reports the shard's topology and current hedge delay.
func (s *Shard) Status() ShardStatus {
	st := ShardStatus{Name: s.name, Replicas: make([]string, len(s.replicas))}
	for i, c := range s.replicas {
		st.Replicas[i] = c.Name()
	}
	if d, ok := s.hedgeDelay(); ok {
		st.Hedging = true
		st.HedgeDelayMS = float64(d.Microseconds()) / 1000
	}
	return st
}

// wirePath renders the root-to-anchor chain for transport, "" for a new
// root.  AnchorChain's leading "^" is a display convention, not part of the
// parseable XPath subset.
func wirePath(q *twig.Query, anchor int) string {
	chain := complete.AnchorChain(q, anchor)
	return strings.TrimPrefix(chain, "^")
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
