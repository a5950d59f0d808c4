package metrics

import (
	"sync"
	"time"
)

// Metrics federation: a router periodically pulls each shard server's
// /api/v1/metrics snapshot (see internal/remote's Federator) and lands it
// here, so one scrape target — the router's /metrics and
// GET /api/v1/cluster/metrics — describes the whole cluster.  The router
// keeps the last successful snapshot of a server that stops answering
// (marked down, with the age visible), because "what was it doing right
// before it died" is exactly the question an operator asks.

// ClusterMetrics aggregates federated shard-server snapshots.
type ClusterMetrics struct {
	mu      sync.RWMutex
	servers map[string]*serverStats
}

// serverStats is the federation state of one shard server.
type serverStats struct {
	up       bool
	err      string    // last poll error, "" while up
	polled   time.Time // last successful poll
	snapshot Snapshot  // last successful snapshot
	has      bool      // a snapshot has landed at least once
}

// Update lands one successful poll of the named shard server.
func (c *ClusterMetrics) Update(server string, snap Snapshot) {
	st := lazy(&c.mu, &c.servers, server)
	c.mu.Lock()
	defer c.mu.Unlock()
	st.up, st.err = true, ""
	st.polled = time.Now()
	st.snapshot, st.has = snap, true
}

// MarkDown records a failed poll.  The last successful snapshot is kept so
// the rollup still answers "what was it doing before it went away".
func (c *ClusterMetrics) MarkDown(server string, err error) {
	st := lazy(&c.mu, &c.servers, server)
	c.mu.Lock()
	defer c.mu.Unlock()
	st.up = false
	if err != nil {
		st.err = err.Error()
	} else {
		st.err = "unreachable"
	}
}

// ClusterServerSnapshot is the rollup view of one shard server.
type ClusterServerSnapshot struct {
	Up bool `json:"up"`
	// Error is the last poll failure; absent while up.
	Error string `json:"error,omitempty"`
	// AgeSeconds is the age of the last successful snapshot; -1 when no poll
	// ever succeeded.
	AgeSeconds float64 `json:"ageSeconds"`
	// Metrics is the server's last /api/v1/metrics snapshot, verbatim;
	// absent when no poll ever succeeded.
	Metrics *Snapshot `json:"metrics,omitempty"`
}

// ClusterSnapshot is the payload of GET /api/v1/cluster/metrics.
type ClusterSnapshot struct {
	Servers map[string]ClusterServerSnapshot `json:"servers"`
}

// Snapshot materializes the federated view.
func (c *ClusterMetrics) Snapshot() ClusterSnapshot {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := ClusterSnapshot{Servers: make(map[string]ClusterServerSnapshot, len(c.servers))}
	for name, st := range c.servers {
		s := ClusterServerSnapshot{Up: st.up, Error: st.err, AgeSeconds: -1}
		if st.has {
			s.AgeSeconds = time.Since(st.polled).Seconds()
			snap := st.snapshot
			s.Metrics = &snap
		}
		out.Servers[name] = s
	}
	return out
}

// clusterRow is one shard server's line of the rollup /metrics exports: the
// requests/errors counters mirror the server's own monotone counters, and
// the latency quantiles are its "query" endpoint's, re-exported as gauges (a
// federated histogram cannot be merged honestly across heterogeneous scrape
// times).
type clusterRow struct {
	Up         bool    `prom:"lotusx_cluster_server_up,gauge" help:"1 while the shard server answers federation polls."`
	Uptime     float64 `prom:"lotusx_cluster_server_uptime_seconds,gauge" help:"Uptime the shard server reported on its last successful poll."`
	Requests   int64   `prom:"lotusx_cluster_server_requests_total,counter" help:"Requests the shard server reported across its endpoints."`
	Errors     int64   `prom:"lotusx_cluster_server_errors_total,counter" help:"Error responses (status >= 400) the shard server reported."`
	ErrorRatio float64 `prom:"lotusx_cluster_server_error_ratio,gauge" help:"Errors over requests on the shard server's last snapshot."`
	// QueryLatency maps quantile ("0.5", "0.95", "0.99") to seconds; nil
	// when the server reported no query endpoint.
	QueryLatency map[string]float64 `prom:"lotusx_cluster_server_query_latency_seconds,gauge,label=quantile" help:"Query-endpoint latency quantiles the shard server reported."`
}

// rows flattens the federation state into one rollup row per server.
func (c *ClusterMetrics) rows() map[string]clusterRow {
	snap := c.Snapshot()
	out := make(map[string]clusterRow, len(snap.Servers))
	for name, sv := range snap.Servers {
		row := clusterRow{Up: sv.Up}
		if m := sv.Metrics; m != nil {
			row.Uptime = m.UptimeSeconds
			for _, ep := range m.Endpoints {
				row.Requests += ep.Requests
				row.Errors += ep.Errors
			}
			if row.Requests > 0 {
				row.ErrorRatio = float64(row.Errors) / float64(row.Requests)
			}
			if q, ok := m.Endpoints["query"]; ok {
				row.QueryLatency = map[string]float64{"0.5": q.Latency.P50MS / 1000, "0.95": q.Latency.P95MS / 1000, "0.99": q.Latency.P99MS / 1000}
			}
		}
		out[name] = row
	}
	return out
}
