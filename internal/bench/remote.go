package bench

import (
	"context"
	"fmt"
	"net/http/httptest"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/faults"
	"lotusx/internal/remote"
	"lotusx/internal/server"
)

// benchCluster is one E17 topology: a remote corpus routed over loopback
// shard servers, R replicas per shard.  Replicas of one shard share the
// engine (one index build) but get distinct HTTP servers and clients, so
// hedging, failover and fault keys behave as they would across machines.
type benchCluster struct {
	*remote.Cluster
	faults  *faults.Registry
	servers [][]*httptest.Server
	// labels maps a replica's fault key — its address, the name the
	// router's assembly gives it — to a stable "s<shard>-r<replica>", so a
	// fault plan samples the same calls whatever ports the servers got.
	labels map[string]string
}

func (b *benchCluster) close() {
	for _, g := range b.servers {
		for _, ts := range g {
			ts.Close()
		}
	}
}

// newBenchCluster splits d into parts slices, serves each from replication
// loopback servers, and assembles the router's remote corpus over them as
// a lotusx-server router does.  Breakers stay disabled so an injected
// failure rate is measured, not quarantined away.
func newBenchCluster(d *doc.Document, parts, replication int, hedge time.Duration) (*benchCluster, error) {
	docs, err := corpus.SplitDocument(d, parts)
	if err != nil {
		return nil, err
	}
	bc := &benchCluster{
		faults:  faults.New(),
		servers: make([][]*httptest.Server, len(docs)),
		labels:  map[string]string{},
	}
	groups := make([][]string, len(docs))
	for i, slice := range docs {
		h := server.New(core.FromDocument(slice))
		for j := 0; j < replication; j++ {
			ts := httptest.NewServer(h)
			bc.servers[i] = append(bc.servers[i], ts)
			groups[i] = append(groups[i], ts.URL)
			bc.labels[ts.Listener.Addr().String()] = fmt.Sprintf("s%02d-r%d", i, j)
		}
	}
	bc.Cluster, err = remote.NewCluster(remote.ClusterConfig{
		Name:       "bench",
		Groups:     groups,
		HedgeDelay: hedge,
		Tuning:     corpus.Tuning{BreakerThreshold: -1},
		Faults:     bc.faults,
	})
	if err != nil {
		bc.close()
		return nil, err
	}
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
				plan := newFaultPlan(rate)
				bc.faults.Enable(faults.Injection{
					Site: remote.FaultRPC,
					Hook: func(ctx context.Context, key string) error { return plan.hook(ctx, bc.labels[key]) },
				})
			}
			a := replay(bc.Corpus, requests)
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
		// Slow replica 0 of each shard, keyed by its address.
		bc.faults.Enable(faults.Injection{
			Site:    remote.FaultRPC,
			Keys:    []string{bc.servers[0][0].Listener.Addr().String(), bc.servers[1][0].Listener.Addr().String()},
			Latency: 30 * time.Millisecond,
		})
		lat := replay(bc.Corpus, requests).lat
		fired, wins := bc.Metrics.HedgesFired.Load(), bc.Metrics.HedgeWins.Load()
		bc.close()
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\n",
			hc.name, ms(percentile(lat, 0.5)), ms(percentile(lat, 0.99)), fired, wins)
	}
	return tw.Flush()
}
