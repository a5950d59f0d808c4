package bench

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/dataset"
	"lotusx/internal/faults"
)

// The fault experiments' query subset: the XMark workload queries (Q5–Q7),
// whose output nodes live at or below record level so sharded evaluation
// returns the same answer set as a single engine.
var corpusQueries = []Query{
	{ID: "Q5", Kind: dataset.XMark, Text: `//item[description//text contains "vintage"]/name`},
	{ID: "Q6", Kind: dataset.XMark, Text: `//person[profile/age]/name`},
	{ID: "Q7", Kind: dataset.XMark, Text: `//open_auction[bidder/increase][seller]`},
}

var errBenchFault = errors.New("bench: injected shard failure")

// faultPlan drives the E14 injection: each per-shard evaluation fails with
// probability rate%, decided by a hash of (shard, call index) so the plan is
// deterministic yet decorrelated across shards (a plain every-nth counter
// would fail all shards of the same fan-out together, since every fan-out
// touches every shard once).  An injected failure is sticky across the
// corpus's one transparent retry — otherwise the retry would absorb nearly
// every fault and all policies would measure alike.
type faultPlan struct {
	mu   sync.Mutex
	rate uint32
	// cnt counts decided evaluations per shard; pending marks a shard whose
	// injected failure must also claim the retry attempt.
	cnt     map[string]int
	pending map[string]bool
}

func newFaultPlan(rate int) *faultPlan {
	return &faultPlan{rate: uint32(rate), cnt: map[string]int{}, pending: map[string]bool{}}
}

func (p *faultPlan) hook(_ context.Context, key string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.pending[key] {
		p.pending[key] = false
		return errBenchFault
	}
	p.cnt[key]++
	h := fnv.New32a()
	fmt.Fprintf(h, "%s#%d", key, p.cnt[key])
	if h.Sum32()%100 < p.rate {
		p.pending[key] = true
		return errBenchFault
	}
	return nil
}

// percentile returns the q-quantile (0 <= q <= 1) of the sample: the element
// at 0-based rank ⌊q·n⌋ of the sorted sample, so q = 0.5 is the upper median.
func percentile(lat []time.Duration, q float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	return sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
}

// availability tallies one request stream: answered whole, answered
// partially (degraded), or failed, with every request's latency.
type availability struct {
	whole, partial, failed int
	lat                    []time.Duration
}

// percent is the share of requests that got an answer, whole or partial.
func (a availability) percent() float64 {
	return float64(a.whole+a.partial) / float64(len(a.lat)) * 100
}

// replay sends c the given number of searches, cycling through
// corpusQueries.
func replay(c *corpus.Corpus, requests int) availability {
	a := availability{lat: make([]time.Duration, 0, requests)}
	for i := 0; i < requests; i++ {
		q := mustParse(corpusQueries[i%len(corpusQueries)].Text)
		start := time.Now()
		res, err := c.SearchHits(context.Background(), q, core.SearchOptions{K: 100})
		a.lat = append(a.lat, time.Since(start))
		switch {
		case err != nil:
			a.failed++
		case res.Partial:
			a.partial++
		default:
			a.whole++
		}
	}
	return a
}

// E14FaultTolerance measures what the shard-failure policy buys: the
// corpusQueries stream over a 4-shard XMark corpus with 0/10/25% of
// per-shard evaluations fault-injected, under degrade vs failfast.  Degrade
// should hold availability at 100% (whole or partial answers) where failfast
// fails whole requests; circuit breakers are disabled so the injected rate
// stays constant instead of quarantining the noisy shard away.
func (r *Runner) E14FaultTolerance() error {
	d, err := dataset.Build(dataset.XMark, r.cfg.Scale, r.cfg.Seed)
	if err != nil {
		return err
	}
	const (
		parts    = 4
		requests = 150
	)

	tw := r.table()
	fmt.Fprintln(tw, "fail%\tpolicy\twhole\tpartial\tfailed\tavailability\tp99 ms")
	for _, rate := range []int{0, 10, 25} {
		for _, policy := range []corpus.ShardPolicy{corpus.PolicyDegrade, corpus.PolicyFailFast} {
			reg := faults.New()
			c, err := corpus.FromDocument(fmt.Sprintf("xmark-%s-f%d", policy, rate), d, parts, corpus.Config{
				Faults: reg,
				Tuning: corpus.Tuning{Policy: policy, BreakerThreshold: -1},
			})
			if err != nil {
				return err
			}
			if rate > 0 {
				reg.Enable(faults.Injection{
					Site: corpus.FaultShardSearch,
					Hook: newFaultPlan(rate).hook,
				})
			}
			a := replay(c, requests)
			fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%.1f%%\t%s\n",
				rate, policy, a.whole, a.partial, a.failed, a.percent(), ms(percentile(a.lat, 0.99)))
		}
	}
	return tw.Flush()
}
