package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// RemoteMetrics aggregates one cluster of remote shards (internal/remote):
// hedging outcome counters plus one RPC latency histogram per replica
// endpoint, so a slow or flapping replica shows up in /api/v1/metrics and
// the Prometheus exposition without a trace.  All fields are safe for
// concurrent use on the query path.
type RemoteMetrics struct {
	// Searches counts logical-shard searches routed through hedged remote
	// backends (one per shard per fan-out, not per replica RPC).
	Searches atomic.Int64
	// HedgesFired counts backup-replica requests launched because the
	// primary outlived the hedge delay.
	HedgesFired atomic.Int64
	// HedgeWins counts searches answered by a hedged (backup) request;
	// HedgeLosses counts searches where a hedge was fired but the primary
	// still answered first.  Wins+Losses ≤ HedgesFired (a search that fails
	// outright counts neither).
	HedgeWins   atomic.Int64
	HedgeLosses atomic.Int64
	// Failovers counts immediate next-replica launches after a fast replica
	// error (distinct from hedges, which react to latency, not failure).
	Failovers atomic.Int64
	// RPCErrors counts individual replica RPCs that failed.
	RPCErrors atomic.Int64

	// mu guards replicas; the histograms are lock-free once handed out.
	mu       sync.RWMutex
	replicas map[string]*Histogram
}

// ObserveReplica records one RPC's latency on the named replica endpoint's
// histogram.  Every RPC is observed, failed ones included — error latency is
// exactly what hedging tuning needs to see.
func (m *RemoteMetrics) ObserveReplica(name string, d time.Duration) {
	lazy(&m.mu, &m.replicas, name).Observe(d)
}

// RemoteSnapshot is the JSON shape of one cluster's remote metrics.
type RemoteSnapshot struct {
	Searches    int64 `json:"searches" prom:"lotusx_remote_searches_total,counter" help:"Logical-shard searches routed to remote shard backends."`
	HedgesFired int64 `json:"hedgesFired" prom:"lotusx_remote_hedges_fired_total,counter" help:"Backup-replica requests launched after the hedge delay."`
	HedgeWins   int64 `json:"hedgeWins" prom:"lotusx_remote_hedge_wins_total,counter" help:"Searches answered first by a hedged (backup) request."`
	HedgeLosses int64 `json:"hedgeLosses" prom:"lotusx_remote_hedge_losses_total,counter" help:"Searches where a hedge fired but the primary answered first."`
	Failovers   int64 `json:"failovers" prom:"lotusx_remote_failovers_total,counter" help:"Immediate next-replica launches after a replica error."`
	RPCErrors   int64 `json:"rpcErrors" prom:"lotusx_remote_rpc_errors_total,counter" help:"Individual replica RPC failures."`
	// Replicas maps replica endpoint name to its RPC latency aggregate.
	Replicas map[string]LatencySnapshot `json:"replicas,omitempty" prom:"lotusx_remote_replica_latency_seconds,histogram,label=replica" help:"Per-replica RPC latency, failed RPCs included."`
}

func (m *RemoteMetrics) snapshot() RemoteSnapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return RemoteSnapshot{
		Searches:    m.Searches.Load(),
		HedgesFired: m.HedgesFired.Load(),
		HedgeWins:   m.HedgeWins.Load(),
		HedgeLosses: m.HedgeLosses.Load(),
		Failovers:   m.Failovers.Load(),
		RPCErrors:   m.RPCErrors.Load(),
		Replicas:    snapshotAll(m.replicas, (*Histogram).Snapshot),
	}
}
