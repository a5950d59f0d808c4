package bench

import (
	"fmt"
	"net/http/httptest"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/faults"
	lmetrics "lotusx/internal/metrics"
	"lotusx/internal/remote"
	"lotusx/internal/server"
)

// benchCluster is one E17 topology: a remote corpus routed over loopback
// shard servers, R replicas per shard.  Replicas of one shard share the
// engine (one index build) but get distinct HTTP servers and clients, so
// hedging, failover and fault keys behave as they would across machines.
type benchCluster struct {
	corpus  *corpus.Corpus
	met     *lmetrics.RemoteMetrics
	faults  *faults.Registry
	servers []*httptest.Server
}

func (b *benchCluster) close() {
	for _, ts := range b.servers {
		ts.Close()
	}
}

// newBenchCluster splits d into parts slices and serves each from
// replication loopback servers behind one hedging remote shard.  Replica
// fault keys are "s<shard>-r<replica>".  Breakers stay disabled so an
// injected failure rate is measured, not quarantined away.
func newBenchCluster(d *doc.Document, parts, replication int, hedge time.Duration) (*benchCluster, error) {
	docs, err := corpus.SplitDocument(d, parts)
	if err != nil {
		return nil, err
	}
	bc := &benchCluster{
		met:    lmetrics.New().Remote("bench"),
		faults: faults.New(),
	}
	backends := make([]corpus.ShardBackend, parts)
	for i, slice := range docs {
		h := server.New(core.FromDocument(slice))
		clients := make([]*remote.Client, replication)
		for j := range clients {
			ts := httptest.NewServer(h)
			bc.servers = append(bc.servers, ts)
			cl, err := remote.NewClient(remote.ClientConfig{
				BaseURL: ts.URL,
				Name:    fmt.Sprintf("s%02d-r%d", i, j),
				Faults:  bc.faults,
				Metrics: bc.met,
			})
			if err != nil {
				bc.close()
				return nil, err
			}
			clients[j] = cl
		}
		sh, err := remote.NewShard(fmt.Sprintf("shard-%02d", i), clients, remote.ShardOptions{
			HedgeDelay: hedge,
			Metrics:    bc.met,
		})
		if err != nil {
			bc.close()
			return nil, err
		}
		backends[i] = sh
	}
	c, err := corpus.NewRemote("bench", backends, corpus.Config{
		Faults: bc.faults,
		Tuning: corpus.Tuning{BreakerThreshold: -1},
	})
	if err != nil {
		bc.close()
		return nil, err
	}
	bc.corpus = c
	return bc, nil
}

// E17RemoteRouter measures the distributed tier.  Table 1: the
// corpusQueries stream through a router over 1/2/4 loopback shard servers
// with R=2 replication, at 0% and 25% injected per-RPC failure — replica
// failover plus degraded partials should hold availability at ~100% where a
// single failed RPC would otherwise fail the request.  Table 2: one replica
// of each shard slowed by 30ms; hedged requests should cut the p99 close to
// the hedge delay while unhedged requests eat the skew.
func (r *Runner) E17RemoteRouter() error {
	d, err := dataset.Build(dataset.XMark, r.cfg.Scale, r.cfg.Seed)
	if err != nil {
		return err
	}
	const requests = 120

	tw := r.table()
	fmt.Fprintln(tw, "shards\tR\tfail%\twhole\tpartial\tfailed\tavailability\tp50 ms\tp99 ms")
	for _, parts := range []int{1, 2, 4} {
		for _, rate := range []int{0, 25} {
			bc, err := newBenchCluster(d, parts, 2, -1)
			if err != nil {
				return err
			}
			if rate > 0 {
				bc.faults.Enable(faults.Injection{
					Site: remote.FaultRPC,
					Hook: newFaultPlan(rate).hook,
				})
			}
			a := replay(bc.corpus, requests)
			bc.close()
			fmt.Fprintf(tw, "%d\t2\t%d\t%d\t%d\t%d\t%.1f%%\t%s\t%s\n",
				parts, rate, a.whole, a.partial, a.failed, a.percent(),
				ms(percentile(a.lat, 0.5)), ms(percentile(a.lat, 0.99)))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}

	tw = r.table()
	fmt.Fprintln(tw, "hedge\tp50 ms\tp99 ms\thedges\twins")
	for _, hc := range []struct {
		name  string
		delay time.Duration
	}{
		{"off", -1},
		{"fixed 5ms", 5 * time.Millisecond},
		{"adaptive", 0},
	} {
		bc, err := newBenchCluster(d, 2, 2, hc.delay)
		if err != nil {
			return err
		}
		bc.faults.Enable(faults.Injection{
			Site:    remote.FaultRPC,
			Keys:    []string{"s00-r0", "s01-r0"},
			Latency: 30 * time.Millisecond,
		})
		lat := replay(bc.corpus, requests).lat
		fired, wins := bc.met.HedgesFired.Load(), bc.met.HedgeWins.Load()
		bc.close()
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\n",
			hc.name, ms(percentile(lat, 0.5)), ms(percentile(lat, 0.99)), fired, wins)
	}
	return tw.Flush()
}
