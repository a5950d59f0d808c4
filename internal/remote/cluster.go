package remote

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"lotusx/internal/corpus"
	"lotusx/internal/faults"
	"lotusx/internal/metrics"
)

// ClusterConfig describes a router's remote corpus: which shard servers
// serve which slice, and how the router races them.
type ClusterConfig struct {
	Name string // router-side dataset name; shard i is "<Name>-<ii>"
	// Groups lists each shard's replica base URLs.  A replica is named by
	// its URL's host in metrics, fault keys and /api/v1/cluster.
	Groups [][]string
	// Dataset is requested of the shard servers ("{shard}" expands to the
	// shard index); "" uses each server's default dataset.
	Dataset    string
	HedgeDelay time.Duration // see ShardOptions.HedgeDelay
	Tuning     corpus.Tuning
	Metrics    *metrics.Registry // nil uses a private registry
	Faults     *faults.Registry  // arms every client and the corpus
}

// Cluster is an assembled remote corpus: one Client per replica, one Shard
// per replica group and the corpus fanning out over them.
type Cluster struct {
	Corpus  *corpus.Corpus
	Metrics *metrics.RemoteMetrics
	shards  []*Shard
}

// NewCluster builds a client per replica, a Shard per group and the remote
// corpus over them.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	cl := &Cluster{Metrics: reg.Remote(cfg.Name)}
	backends := make([]corpus.ShardBackend, len(cfg.Groups))
	for i, g := range cfg.Groups {
		clients := make([]*Client, len(g))
		for j, u := range g {
			c, err := NewClient(ClientConfig{
				BaseURL: u,
				Dataset: strings.ReplaceAll(cfg.Dataset, "{shard}", strconv.Itoa(i)),
				Faults:  cfg.Faults,
				Metrics: cl.Metrics,
			})
			if err != nil {
				return nil, err
			}
			clients[j] = c
		}
		sh, err := NewShard(fmt.Sprintf("%s-%02d", cfg.Name, i), clients, ShardOptions{
			HedgeDelay: cfg.HedgeDelay,
			Metrics:    cl.Metrics,
		})
		if err != nil {
			return nil, err
		}
		cl.shards = append(cl.shards, sh)
		backends[i] = sh
	}
	c, err := corpus.NewRemote(cfg.Name, backends, corpus.Config{
		Metrics: reg.Corpus(cfg.Name),
		Tuning:  cfg.Tuning,
		Faults:  cfg.Faults,
	})
	if err != nil {
		return nil, err
	}
	cl.Corpus = c
	return cl, nil
}

// Status is the cluster's topology for GET /api/v1/cluster: the dataset
// name and every shard's replicas and hedge delay.
func (c *Cluster) Status() any {
	sts := make([]ShardStatus, len(c.shards))
	for i, sh := range c.shards {
		sts[i] = sh.Status()
	}
	return map[string]any{"dataset": c.Corpus.Name(), "shards": sts}
}
