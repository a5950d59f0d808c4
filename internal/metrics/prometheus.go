package metrics

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Prometheus text-format exposition (version 0.0.4), hand-rolled so the
// serving layer scrapes without a client-library dependency.  Latencies are
// exported in seconds (the Prometheus base unit); histogram buckets reuse
// the fixed exponential bounds of Histogram, cumulated per the exposition
// contract, with the overflow bucket folded into +Inf.  Because Export
// derives the sample count from the bucket reads themselves, the
// `_count == _bucket{le="+Inf"}` invariant holds exactly even under
// concurrent load.

// WritePrometheus renders every registered metric family to w.  Families
// and label values are emitted in sorted order so the output is
// deterministic and diffable.
func (r *Registry) WritePrometheus(w io.Writer) {
	// Copy the maps under the read lock, then render lock-free: the values
	// are themselves concurrent-safe and live forever once registered.
	r.mu.RLock()
	uptime := time.Since(r.start).Seconds()
	endpoints := make(map[string]*Endpoint, len(r.endpoints))
	for k, v := range r.endpoints {
		endpoints[k] = v
	}
	algos := make(map[string]*Histogram, len(r.algos))
	for k, v := range r.algos {
		algos[k] = v
	}
	stages := make(map[string]*Histogram, len(r.stages))
	for k, v := range r.stages {
		stages[k] = v
	}
	corpora := make(map[string]*CorpusMetrics, len(r.corpora))
	for k, v := range r.corpora {
		corpora[k] = v
	}
	caches := make(map[string]*CacheMetrics, len(r.caches))
	for k, v := range r.caches {
		caches[k] = v
	}
	remotes := make(map[string]*RemoteMetrics, len(r.remotes))
	for k, v := range r.remotes {
		remotes[k] = v
	}
	ingest := r.ingest
	lifecycle := r.lifecycle
	admission := r.admission
	cluster := r.cluster
	r.mu.RUnlock()

	fmt.Fprintf(w, "# HELP lotusx_uptime_seconds Time since the metrics registry was created.\n")
	fmt.Fprintf(w, "# TYPE lotusx_uptime_seconds gauge\n")
	fmt.Fprintf(w, "lotusx_uptime_seconds %s\n", fmtFloat(uptime))

	epNames := sortedKeys(endpoints)
	counterFamily(w, "lotusx_endpoint_requests_total", "Requests routed to the endpoint.",
		epNames, func(n string) int64 { return endpoints[n].Requests.Load() }, "endpoint")
	counterFamily(w, "lotusx_endpoint_errors_total", "Responses with status >= 400.",
		epNames, func(n string) int64 { return endpoints[n].Errors.Load() }, "endpoint")
	counterFamily(w, "lotusx_endpoint_timeouts_total", "Responses that hit the per-request deadline (504).",
		epNames, func(n string) int64 { return endpoints[n].Timeouts.Load() }, "endpoint")
	counterFamily(w, "lotusx_endpoint_shed_total", "Requests refused by admission control: the per-client rate limiter (429), the in-flight limiter and the drain gate (503).",
		epNames, func(n string) int64 { return endpoints[n].Shed.Load() }, "endpoint")
	histogramFamily(w, "lotusx_endpoint_latency_seconds", "Request latency by endpoint.",
		epNames, func(n string) Export { return endpoints[n].Latency.Export() }, "endpoint")

	histogramFamily(w, "lotusx_algorithm_latency_seconds", "Query latency by resolved join algorithm.",
		sortedKeys(algos), func(n string) Export { return algos[n].Export() }, "algorithm")

	histogramFamily(w, "lotusx_stage_latency_seconds", "Pipeline stage latency folded from query traces.",
		sortedKeys(stages), func(n string) Export { return stages[n].Export() }, "stage")

	if len(corpora) > 0 {
		cNames := sortedKeys(corpora)
		gaugeFamily(w, "lotusx_corpus_shards", "Shard count of the current corpus snapshot.",
			cNames, func(n string) int64 { return int64(corpora[n].Shards()) }, "corpus")
		gaugeFamily(w, "lotusx_corpus_delta_shards", "Async-ingested delta shards awaiting compaction.",
			cNames, func(n string) int64 { return int64(corpora[n].DeltaShards()) }, "corpus")
		counterFamily(w, "lotusx_corpus_swaps_total", "Snapshot publishes (ingest, remove, reindex).",
			cNames, func(n string) int64 { return corpora[n].Swaps.Load() }, "corpus")
		counterFamily(w, "lotusx_corpus_searches_total", "Fan-out searches served.",
			cNames, func(n string) int64 { return corpora[n].Searches.Load() }, "corpus")
		counterFamily(w, "lotusx_corpus_partial_searches_total", "Searches answered from a strict subset of shards (degrade policy).",
			cNames, func(n string) int64 { return corpora[n].Partial.Load() }, "corpus")
		counterFamily(w, "lotusx_corpus_shard_failures_total", "Per-shard evaluation failures, including breaker-quarantine skips.",
			cNames, func(n string) int64 { return corpora[n].ShardFailures.Load() }, "corpus")
		counterFamily(w, "lotusx_corpus_breaker_trips_total", "Circuit-breaker closed-to-open transitions.",
			cNames, func(n string) int64 { return corpora[n].BreakerTrips.Load() }, "corpus")
		gaugeFamily(w, "lotusx_corpus_quarantined_shards", "Shards whose circuit breaker is currently not closed.",
			cNames, func(n string) int64 { return corpora[n].Quarantined() }, "corpus")
		gaugeFamily(w, "lotusx_corpus_resident_bytes", "Resident index-substrate bytes across the snapshot's local shards.",
			cNames, func(n string) int64 { return corpora[n].residentBytes.Load() }, "corpus")
		gaugeFamily(w, "lotusx_corpus_raw_bytes", "Raw-substrate-equivalent bytes the snapshot's indexes would occupy uncompressed.",
			cNames, func(n string) int64 { return corpora[n].rawBytes.Load() }, "corpus")
		gaugeFamily(w, "lotusx_corpus_index_shapes", "Distinct subtree shapes stored by the DAG-compressed shards.",
			cNames, func(n string) int64 { return corpora[n].indexShapes.Load() }, "corpus")
		gaugeFamily(w, "lotusx_corpus_index_instances", "Shared-subtree occurrences the stored shapes stand for.",
			cNames, func(n string) int64 { return corpora[n].indexInstances.Load() }, "corpus")
		gaugeFamily(w, "lotusx_corpus_compressed_shards", "Shards whose index runs on the DAG-compressed substrate.",
			cNames, func(n string) int64 { return corpora[n].compressedShards.Load() }, "corpus")
		histogramFamily(w, "lotusx_corpus_fanout_latency_seconds", "Wall-clock of the parallel per-shard fan-out phase.",
			cNames, func(n string) Export { return corpora[n].Fanout.Export() }, "corpus")
		histogramFamily(w, "lotusx_corpus_merge_latency_seconds", "Wall-clock of the global merge and render phase.",
			cNames, func(n string) Export { return corpora[n].Merge.Export() }, "corpus")

		// Per-shard latency: two labels, flattened to "corpus\x00shard" keys
		// so the shared family renderer applies.
		type shardKey struct{ corpus, shard string }
		var keys []shardKey
		hists := make(map[shardKey]*Histogram)
		for _, cn := range cNames {
			for sn, h := range corpora[cn].shardHistograms() {
				k := shardKey{cn, sn}
				keys = append(keys, k)
				hists[k] = h
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].corpus != keys[j].corpus {
				return keys[i].corpus < keys[j].corpus
			}
			return keys[i].shard < keys[j].shard
		})
		if len(keys) > 0 {
			fmt.Fprintf(w, "# HELP lotusx_corpus_shard_latency_seconds Per-shard query latency within the fan-out.\n")
			fmt.Fprintf(w, "# TYPE lotusx_corpus_shard_latency_seconds histogram\n")
			for _, k := range keys {
				writeHistogram(w, "lotusx_corpus_shard_latency_seconds",
					fmt.Sprintf(`corpus=%q,shard=%q`, k.corpus, k.shard),
					hists[k].Export())
			}
		}
	}

	if len(caches) > 0 {
		names := sortedKeys(caches)
		counterFamily(w, "lotusx_cache_hits_total", "Cache lookups answered from a stored entry.",
			names, func(n string) int64 { return caches[n].Hits.Load() }, "cache")
		counterFamily(w, "lotusx_cache_misses_total", "Cache lookups that ran the computation.",
			names, func(n string) int64 { return caches[n].Misses.Load() }, "cache")
		counterFamily(w, "lotusx_cache_evictions_total", "Cache entries dropped to stay within the byte budget.",
			names, func(n string) int64 { return caches[n].Evictions.Load() }, "cache")
		counterFamily(w, "lotusx_cache_singleflight_waits_total", "Cache lookups that waited on an identical in-flight computation.",
			names, func(n string) int64 { return caches[n].SingleflightWaits.Load() }, "cache")
		gaugeFamily(w, "lotusx_cache_entries", "Live entries stored in the cache.",
			names, func(n string) int64 { return caches[n].Entries() }, "cache")
		gaugeFamily(w, "lotusx_cache_bytes", "Byte cost of the entries stored in the cache.",
			names, func(n string) int64 { return caches[n].Bytes() }, "cache")
	}

	if len(remotes) > 0 {
		names := sortedKeys(remotes)
		counterFamily(w, "lotusx_remote_searches_total", "Logical-shard searches routed to remote shard backends.",
			names, func(n string) int64 { return remotes[n].Searches.Load() }, "cluster")
		counterFamily(w, "lotusx_remote_hedges_fired_total", "Backup-replica requests launched after the hedge delay.",
			names, func(n string) int64 { return remotes[n].HedgesFired.Load() }, "cluster")
		counterFamily(w, "lotusx_remote_hedge_wins_total", "Searches answered first by a hedged (backup) request.",
			names, func(n string) int64 { return remotes[n].HedgeWins.Load() }, "cluster")
		counterFamily(w, "lotusx_remote_hedge_losses_total", "Searches where a hedge fired but the primary answered first.",
			names, func(n string) int64 { return remotes[n].HedgeLosses.Load() }, "cluster")
		counterFamily(w, "lotusx_remote_failovers_total", "Immediate next-replica launches after a replica error.",
			names, func(n string) int64 { return remotes[n].Failovers.Load() }, "cluster")
		counterFamily(w, "lotusx_remote_rpc_errors_total", "Individual replica RPC failures.",
			names, func(n string) int64 { return remotes[n].RPCErrors.Load() }, "cluster")

		// Per-replica RPC latency: two labels, rendered like the per-shard
		// corpus family above.
		type repKey struct{ cluster, replica string }
		var keys []repKey
		hists := make(map[repKey]*Histogram)
		for _, cn := range names {
			m := remotes[cn]
			m.mu.RLock()
			for rn, h := range m.replicas {
				k := repKey{cn, rn}
				keys = append(keys, k)
				hists[k] = h
			}
			m.mu.RUnlock()
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].cluster != keys[j].cluster {
				return keys[i].cluster < keys[j].cluster
			}
			return keys[i].replica < keys[j].replica
		})
		if len(keys) > 0 {
			fmt.Fprintf(w, "# HELP lotusx_remote_replica_latency_seconds Per-replica RPC latency, failed RPCs included.\n")
			fmt.Fprintf(w, "# TYPE lotusx_remote_replica_latency_seconds histogram\n")
			for _, k := range keys {
				writeHistogram(w, "lotusx_remote_replica_latency_seconds",
					fmt.Sprintf(`cluster=%q,replica=%q`, k.cluster, k.replica),
					hists[k].Export())
			}
		}
	}

	if ingest != nil {
		scalarCounter(w, "lotusx_ingest_jobs_enqueued_total", "Ingest jobs accepted into the queue.", ingest.Enqueued.Load())
		scalarCounter(w, "lotusx_ingest_jobs_deduped_total", "Enqueues collapsed into an identical active job.", ingest.Deduped.Load())
		scalarCounter(w, "lotusx_ingest_jobs_rejected_total", "Enqueues refused because the queue was full.", ingest.Rejected.Load())
		scalarCounter(w, "lotusx_ingest_jobs_completed_total", "Ingest jobs that finished successfully.", ingest.Done.Load())
		scalarCounter(w, "lotusx_ingest_jobs_failed_total", "Ingest jobs that finished with an error.", ingest.Failed.Load())
		scalarGauge(w, "lotusx_ingest_queue_depth", "Jobs queued, not yet running.", ingest.Depth())
		scalarGauge(w, "lotusx_ingest_jobs_running", "Jobs currently on a worker.", ingest.Running())
		scalarHistogram(w, "lotusx_ingest_queue_wait_seconds", "Time from enqueue to worker pickup.", ingest.QueueWait.Export())
		scalarHistogram(w, "lotusx_ingest_job_duration_seconds", "Time from worker pickup to job finish.", ingest.Run.Export())
		scalarCounter(w, "lotusx_ingest_compactions_total", "Successful delta-compaction rounds.", ingest.Compactions.Load())
		scalarCounter(w, "lotusx_ingest_compaction_failures_total", "Delta-compaction rounds that errored.", ingest.CompactionFailures.Load())
		scalarCounter(w, "lotusx_ingest_compacted_shards_total", "Delta shards folded into base shards.", ingest.CompactedShards.Load())
		scalarHistogram(w, "lotusx_ingest_compaction_duration_seconds", "Wall-clock per compaction round.", ingest.CompactionRun.Export())
	}

	if lifecycle != nil {
		scalarGauge(w, "lotusx_lifecycle_draining", "1 while the server drains for shutdown (readyz answers draining, new work is refused).", lifecycle.Draining())
		scalarCounter(w, "lotusx_lifecycle_drain_rejected_total", "Requests refused with 503 while the server was draining.", lifecycle.DrainRejected.Load())
		scalarCounter(w, "lotusx_lifecycle_journal_accepted_total", "Ingest-journal accept records written (durable 202 promises).", lifecycle.JournalAccepted.Load())
		scalarCounter(w, "lotusx_lifecycle_journal_completed_total", "Ingest-journal terminal records written.", lifecycle.JournalCompleted.Load())
		scalarCounter(w, "lotusx_lifecycle_journal_replayed_total", "Pending journal records re-enqueued at startup.", lifecycle.JournalReplayed.Load())
		scalarGauge(w, "lotusx_lifecycle_journal_pending", "Accepted ingest jobs without a terminal journal record.", lifecycle.JournalPending())
		scalarCounter(w, "lotusx_lifecycle_spool_orphans_swept_total", "Orphaned ingest spool files removed at startup.", lifecycle.OrphansSwept.Load())
	}

	if admission != nil {
		scalarCounter(w, "lotusx_admission_allowed_total", "Requests that passed the per-client rate limiter.", admission.Allowed.Load())
		scalarCounter(w, "lotusx_admission_limited_total", "Requests refused with 429 + Retry-After by the per-client rate limiter.", admission.Limited.Load())
		scalarCounter(w, "lotusx_admission_evicted_total", "Idle client token buckets evicted from the limiter table.", admission.Evicted.Load())
		scalarGauge(w, "lotusx_admission_clients", "Live client token buckets in the limiter table.", admission.Clients())
		scalarCounter(w, "lotusx_admission_retry_budget_granted_total", "Hedges and failovers the router retry budget allowed.", admission.RetryBudgetGranted.Load())
		scalarCounter(w, "lotusx_admission_retry_budget_denied_total", "Hedges and failovers skipped because the retry budget was spent.", admission.RetryBudgetDenied.Load())
	}

	if cluster != nil {
		rows := cluster.rows()
		if len(rows) > 0 {
			writeClusterRows(w, rows)
		}
	}

	ps := processSnapshot()
	scalarGauge(w, "lotusx_process_goroutines", "Live goroutines in the serving process.", int64(ps.Goroutines))
	scalarGauge(w, "lotusx_process_heap_alloc_bytes", "Bytes of allocated heap objects.", int64(ps.HeapAllocBytes))
	scalarGauge(w, "lotusx_process_heap_sys_bytes", "Bytes of heap memory obtained from the OS.", int64(ps.HeapSysBytes))
	scalarCounter(w, "lotusx_process_gc_cycles_total", "Completed GC cycles.", int64(ps.GCCycles))
	scalarFloatCounter(w, "lotusx_process_gc_pause_seconds_total", "Cumulative stop-the-world GC pause time.", ps.GCPauseTotalSeconds)
	version, goVersion, module := buildIdentity()
	fmt.Fprintf(w, "# HELP lotusx_build_info Build identity of the serving binary; the value is always 1.\n")
	fmt.Fprintf(w, "# TYPE lotusx_build_info gauge\n")
	fmt.Fprintf(w, "lotusx_build_info{version=%q,goversion=%q,module=%q} 1\n", version, goVersion, module)
}

// writeClusterRows renders the lotusx_cluster_* federation families — the
// per-shard-server rollup a router exposes so one scrape target describes
// the whole cluster.  The requests/errors families mirror the remote
// servers' own monotone counters; the latency quantiles are the remote
// "query" endpoint's, re-exported as gauges (a federated histogram cannot
// be merged honestly across heterogeneous scrape times).
func writeClusterRows(w io.Writer, rows []clusterRow) {
	fmt.Fprintf(w, "# HELP lotusx_cluster_server_up 1 while the shard server answers federation polls.\n")
	fmt.Fprintf(w, "# TYPE lotusx_cluster_server_up gauge\n")
	for _, row := range rows {
		up := 0
		if row.up {
			up = 1
		}
		fmt.Fprintf(w, "lotusx_cluster_server_up{server=%q} %d\n", row.name, up)
	}
	fmt.Fprintf(w, "# HELP lotusx_cluster_server_uptime_seconds Uptime the shard server reported on its last successful poll.\n")
	fmt.Fprintf(w, "# TYPE lotusx_cluster_server_uptime_seconds gauge\n")
	for _, row := range rows {
		fmt.Fprintf(w, "lotusx_cluster_server_uptime_seconds{server=%q} %s\n", row.name, fmtFloat(row.uptime))
	}
	fmt.Fprintf(w, "# HELP lotusx_cluster_server_requests_total Requests the shard server reported across its endpoints.\n")
	fmt.Fprintf(w, "# TYPE lotusx_cluster_server_requests_total counter\n")
	for _, row := range rows {
		fmt.Fprintf(w, "lotusx_cluster_server_requests_total{server=%q} %d\n", row.name, row.requests)
	}
	fmt.Fprintf(w, "# HELP lotusx_cluster_server_errors_total Error responses (status >= 400) the shard server reported.\n")
	fmt.Fprintf(w, "# TYPE lotusx_cluster_server_errors_total counter\n")
	for _, row := range rows {
		fmt.Fprintf(w, "lotusx_cluster_server_errors_total{server=%q} %d\n", row.name, row.errors)
	}
	fmt.Fprintf(w, "# HELP lotusx_cluster_server_error_ratio Errors over requests on the shard server's last snapshot.\n")
	fmt.Fprintf(w, "# TYPE lotusx_cluster_server_error_ratio gauge\n")
	for _, row := range rows {
		fmt.Fprintf(w, "lotusx_cluster_server_error_ratio{server=%q} %s\n", row.name, fmtFloat(row.errorRatio))
	}
	hasLatency := false
	for _, row := range rows {
		if row.hasQueryLatency {
			hasLatency = true
		}
	}
	if !hasLatency {
		return
	}
	fmt.Fprintf(w, "# HELP lotusx_cluster_server_query_latency_seconds Query-endpoint latency quantiles the shard server reported.\n")
	fmt.Fprintf(w, "# TYPE lotusx_cluster_server_query_latency_seconds gauge\n")
	for _, row := range rows {
		if !row.hasQueryLatency {
			continue
		}
		for _, q := range []struct {
			q  string
			ms float64
		}{{"0.5", row.queryLatency.P50MS}, {"0.95", row.queryLatency.P95MS}, {"0.99", row.queryLatency.P99MS}} {
			fmt.Fprintf(w, "lotusx_cluster_server_query_latency_seconds{server=%q,quantile=%q} %s\n",
				row.name, q.q, fmtFloat(q.ms/1000))
		}
	}
}

// scalarFloatCounter writes one unlabeled float-valued counter (GC pause
// totals are fractional seconds).
func scalarFloatCounter(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %s\n", name, help, name, name, fmtFloat(v))
}

// scalarCounter writes one unlabeled counter.
func scalarCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// scalarGauge writes one unlabeled gauge.
func scalarGauge(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
}

// scalarHistogram writes one unlabeled histogram series.
func scalarHistogram(w io.Writer, name, help string, e Export) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i := 0; i < bucketCount-1; i++ {
		cum += e.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, fmtFloat(bucketBound(i).Seconds()), cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, e.Count)
	fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(time.Duration(e.Sum).Seconds()))
	fmt.Fprintf(w, "%s_count %d\n", name, e.Count)
}

// counterFamily writes one counter metric family with a single label.
func counterFamily(w io.Writer, name, help string, keys []string, val func(string) int64, label string) {
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, val(k))
	}
}

// gaugeFamily writes one gauge metric family with a single label.
func gaugeFamily(w io.Writer, name, help string, keys []string, val func(string) int64, label string) {
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, val(k))
	}
}

// histogramFamily writes one histogram metric family with a single label.
func histogramFamily(w io.Writer, name, help string, keys []string, export func(string) Export, label string) {
	if len(keys) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, k := range keys {
		writeHistogram(w, name, fmt.Sprintf("%s=%q", label, k), export(k))
	}
}

// writeHistogram emits the _bucket/_sum/_count triple of one labeled series.
func writeHistogram(w io.Writer, name, labels string, e Export) {
	var cum int64
	// The finite buckets; the final (overflow) bucket folds into +Inf.
	for i := 0; i < bucketCount-1; i++ {
		cum += e.Buckets[i]
		fmt.Fprintf(w, "%s_bucket{%s,le=\"%s\"} %d\n", name, labels, fmtFloat(bucketBound(i).Seconds()), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, e.Count)
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, labels, fmtFloat(time.Duration(e.Sum).Seconds()))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, e.Count)
}

// fmtFloat renders a float compactly; %g keeps round values short and
// Go's escaping of label values via %q matches the exposition format's
// (backslash, quote and newline escapes are identical).
func fmtFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}

// sortedKeys returns the sorted keys of a string-keyed map.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
