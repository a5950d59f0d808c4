package corpus

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"lotusx/internal/metrics"
)

// Per-shard circuit breakers.
//
// Every fan-out consults the breaker before evaluating a shard and reports
// the outcome after.  A shard that fails BreakerThreshold consecutive
// evaluations trips open: the fan-out skips it (counting it among the failed
// shards of a degraded answer) for BreakerCooldown, after which exactly one
// request is let through as a half-open probe — success closes the breaker,
// failure reopens it for another cooldown.  The state machine is a single
// mutex over a small map: it sits on the query path, but the critical
// sections are a few field reads per shard, far below the cost of a twig
// join, and the map only ever holds one entry per shard name.

// Breaker states, rendered verbatim in /api/v1/metrics and the admin
// health route.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

// shardBreaker is the mutable breaker record of one shard.
type shardBreaker struct {
	state       string
	consecutive int       // failures since the last success
	trips       int64     // closed→open transitions, incl. failed probes
	lastErr     string    // failure that last advanced the breaker
	openedAt    time.Time // when the breaker last opened
	probing     bool      // a half-open probe is in flight
}

// health tracks one breaker per shard of a corpus.
type health struct {
	threshold int
	cooldown  time.Duration
	met       *metrics.CorpusMetrics
	now       func() time.Time // injectable for tests

	mu     sync.Mutex
	shards map[string]*shardBreaker
}

// newHealth builds the breaker set; a negative threshold disables breakers
// entirely and returns nil (every caller nil-checks).
func newHealth(t Tuning, met *metrics.CorpusMetrics) *health {
	threshold := t.BreakerThreshold
	if threshold < 0 {
		return nil
	}
	if threshold == 0 {
		threshold = defaultBreakerThreshold
	}
	cooldown := t.BreakerCooldown
	if cooldown <= 0 {
		cooldown = defaultBreakerCooldown
	}
	return &health{
		threshold: threshold,
		cooldown:  cooldown,
		met:       met,
		now:       time.Now,
		shards:    make(map[string]*shardBreaker),
	}
}

// get returns (creating on first use) the named shard's breaker record.
// Callers hold h.mu.
func (h *health) get(name string) *shardBreaker {
	b := h.shards[name]
	if b == nil {
		b = &shardBreaker{state: breakerClosed}
		h.shards[name] = b
	}
	return b
}

// allow reports whether the named shard may be evaluated right now.  An open
// breaker whose cooldown has expired admits exactly one caller as the
// half-open probe; concurrent callers are refused until the probe resolves.
func (h *health) allow(name string) bool {
	if h == nil {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.get(name)
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if h.now().Sub(b.openedAt) < h.cooldown {
			return false
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a completed evaluation: the breaker closes whatever state
// it was in.
func (h *health) success(name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.get(name)
	b.state = breakerClosed
	b.consecutive = 0
	b.probing = false
	b.lastErr = ""
}

// failure records a failed evaluation.  A half-open probe failing reopens
// immediately; a closed breaker trips once consecutive failures reach the
// threshold.  Each closed/half-open → open transition counts as one trip.
func (h *health) failure(name string, err error) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.get(name)
	b.consecutive++
	if err != nil {
		b.lastErr = err.Error()
	}
	b.probing = false
	switch {
	case b.state == breakerHalfOpen:
		h.trip(b)
	case b.state == breakerClosed && b.consecutive >= h.threshold:
		h.trip(b)
	}
}

// trip opens b.  Callers hold h.mu.
func (h *health) trip(b *shardBreaker) {
	b.state = breakerOpen
	b.openedAt = h.now()
	b.trips++
	if h.met != nil {
		h.met.BreakerTrips.Add(1)
	}
}

// retryIn reports the cooldown remaining before the named shard's open
// breaker will admit a half-open probe — what a Retry-After header should
// promise.  0 for closed/half-open breakers, expired cooldowns, or disabled
// health tracking.
func (h *health) retryIn(name string) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.shards[name]
	if b == nil || b.state != breakerOpen {
		return 0
	}
	if rem := h.cooldown - h.now().Sub(b.openedAt); rem > 0 {
		return rem
	}
	return 0
}

// release ends a half-open probe without a verdict — the evaluation was
// abandoned (sibling cancellation, caller deadline) so the probe neither
// closes nor reopens the breaker; the next allow admits a fresh probe.
func (h *health) release(name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if b := h.shards[name]; b != nil {
		b.probing = false
	}
}

// reset force-closes the named shard's breaker (the admin POST).  The trip
// counter survives — it is a lifetime counter, not state.
func (h *health) reset(name string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.get(name)
	b.state = breakerClosed
	b.consecutive = 0
	b.probing = false
	b.lastErr = ""
}

// status renders one shard's breaker for metrics and the admin route.
// Callers hold h.mu.
func (h *health) status(b *shardBreaker) metrics.ShardHealth {
	s := metrics.ShardHealth{
		State:               b.state,
		ConsecutiveFailures: b.consecutive,
		Trips:               b.trips,
		LastError:           b.lastErr,
	}
	if b.state == breakerOpen {
		if rem := h.cooldown - h.now().Sub(b.openedAt); rem > 0 {
			s.RetryInMS = float64(rem) / float64(time.Millisecond)
		}
	}
	return s
}

// snapshot renders every shard named in names (breakers default to closed
// for shards never seen by a fan-out).
func (h *health) snapshot(names []string) map[string]metrics.ShardHealth {
	out := make(map[string]metrics.ShardHealth, len(names))
	if h == nil {
		for _, n := range names {
			out[n] = metrics.ShardHealth{State: breakerClosed}
		}
		return out
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, n := range names {
		out[n] = h.status(h.get(n))
	}
	return out
}

// quarantined lists the shards among names whose breaker is not closed,
// in order.
func (h *health) quarantined(names []string) []string {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for _, n := range names {
		if b := h.shards[n]; b != nil && b.state != breakerClosed {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------- accessors

// shardMetrics is the corpus's metrics.CorpusMetrics shard provider: the
// breaker state of every shard in the current snapshot, and the latency of
// those a fan-out has reached.  Shards that leave the snapshot leave both
// maps with it.
func (c *Corpus) shardMetrics() (map[string]metrics.ShardHealth, map[string]metrics.LatencySnapshot) {
	snap := c.Snapshot()
	latency := make(map[string]metrics.LatencySnapshot, len(snap.shards))
	for _, sh := range snap.shards {
		if l := sh.latency.Snapshot(); l.Count > 0 {
			latency[sh.name] = l
		}
	}
	return c.health.snapshot(snap.Names()), latency
}

// ShardHealthOf reports the named shard's breaker state, erroring when the
// current snapshot has no such shard.
func (c *Corpus) ShardHealthOf(name string) (metrics.ShardHealth, error) {
	for _, sh := range c.Snapshot().shards {
		if sh.name == name {
			m := c.health.snapshot([]string{name})
			return m[name], nil
		}
	}
	return metrics.ShardHealth{}, fmt.Errorf("corpus: no shard %q in %s", name, c.name)
}

// ResetShardHealth force-closes the named shard's breaker, erroring when the
// current snapshot has no such shard.
func (c *Corpus) ResetShardHealth(name string) error {
	for _, sh := range c.Snapshot().shards {
		if sh.name == name {
			c.health.reset(name)
			return nil
		}
	}
	return fmt.Errorf("corpus: no shard %q in %s", name, c.name)
}

// QuarantinedShards lists the shards of the current snapshot whose breaker
// is open or half-open, sorted.
func (c *Corpus) QuarantinedShards() []string {
	if c.health == nil {
		return nil
	}
	return c.health.quarantined(c.Snapshot().Names())
}

// Degraded reports a human-readable reason when the corpus is serving but
// impaired — shards quarantined by their breakers, or shard files
// quarantined at startup — and "" when whole.  /readyz renders it as
// "ready (degraded): ...".
func (c *Corpus) Degraded() string {
	var parts []string
	if q := c.QuarantinedShards(); len(q) > 0 {
		parts = append(parts, fmt.Sprintf("%d shard(s) breaker-quarantined: %s",
			len(q), strings.Join(q, ", ")))
	}
	if len(c.loadQuarantined) > 0 {
		parts = append(parts, fmt.Sprintf("%d shard file(s) quarantined at startup: %s",
			len(c.loadQuarantined), strings.Join(c.loadQuarantined, ", ")))
	}
	if len(parts) == 0 {
		return ""
	}
	return fmt.Sprintf("corpus %s: %s", c.name, strings.Join(parts, "; "))
}
