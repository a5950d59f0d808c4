package metrics

import (
	"sync/atomic"
)

// IngestMetrics aggregates the async ingestion pipeline (internal/ingest):
// job counters by outcome, live queue-depth and worker gauges, latency
// histograms for time-in-queue and time-running, and the background
// compactor's counters.  All fields are safe for concurrent use; the queue
// updates them from its enqueue path and worker goroutines.
type IngestMetrics struct {
	Enqueued atomic.Int64 // jobs accepted into the queue
	Deduped  atomic.Int64 // enqueues collapsed into an already-active identical job
	Rejected atomic.Int64 // enqueues refused because the queue was full
	Done     atomic.Int64 // jobs that finished successfully
	Failed   atomic.Int64 // jobs that finished with an error

	depth   atomic.Int64 // jobs queued, not yet running
	running atomic.Int64 // jobs currently on a worker

	QueueWait Histogram // enqueue → worker pickup
	Run       Histogram // worker pickup → finish

	// Background compaction (delta shards folded into base shards).
	Compactions        atomic.Int64 // successful compaction rounds
	CompactionNoops    atomic.Int64 // rounds that found no deltas to merge
	CompactionFailures atomic.Int64 // rounds that errored (incl. conflicts)
	CompactedShards    atomic.Int64 // delta shards folded away, summed
	CompactionRun      Histogram    // wall-clock per compaction round
}

// SetDepth records the number of queued (not yet running) jobs.
func (m *IngestMetrics) SetDepth(n int) { m.depth.Store(int64(n)) }

// AddRunning adjusts the running-job gauge by d (workers call it with +1 on
// pickup and -1 on finish).
func (m *IngestMetrics) AddRunning(d int) { m.running.Add(int64(d)) }

// IngestSnapshot is the JSON shape of the ingest pipeline's metrics.
type IngestSnapshot struct {
	Enqueued   int64           `json:"enqueued" prom:"lotusx_ingest_jobs_enqueued_total,counter" help:"Ingest jobs accepted into the queue."`
	Deduped    int64           `json:"deduped" prom:"lotusx_ingest_jobs_deduped_total,counter" help:"Enqueues collapsed into an identical active job."`
	Rejected   int64           `json:"rejected,omitempty" prom:"lotusx_ingest_jobs_rejected_total,counter" help:"Enqueues refused because the queue was full."`
	Done       int64           `json:"done" prom:"lotusx_ingest_jobs_completed_total,counter" help:"Ingest jobs that finished successfully."`
	Failed     int64           `json:"failed" prom:"lotusx_ingest_jobs_failed_total,counter" help:"Ingest jobs that finished with an error."`
	QueueDepth int64           `json:"queueDepth" prom:"lotusx_ingest_queue_depth,gauge" help:"Jobs queued, not yet running."`
	Running    int64           `json:"running" prom:"lotusx_ingest_jobs_running,gauge" help:"Jobs currently on a worker."`
	QueueWait  LatencySnapshot `json:"queueWait" prom:"lotusx_ingest_queue_wait_seconds,histogram" help:"Time from enqueue to worker pickup."`
	Run        LatencySnapshot `json:"run" prom:"lotusx_ingest_job_duration_seconds,histogram" help:"Time from worker pickup to job finish."`

	Compactions        int64           `json:"compactions" prom:"lotusx_ingest_compactions_total,counter" help:"Successful delta-compaction rounds."`
	CompactionNoops    int64           `json:"compactionNoops,omitempty"`
	CompactionFailures int64           `json:"compactionFailures,omitempty" prom:"lotusx_ingest_compaction_failures_total,counter" help:"Delta-compaction rounds that errored."`
	CompactedShards    int64           `json:"compactedShards" prom:"lotusx_ingest_compacted_shards_total,counter" help:"Delta shards folded into base shards."`
	CompactionRun      LatencySnapshot `json:"compactionRun" prom:"lotusx_ingest_compaction_duration_seconds,histogram" help:"Wall-clock per compaction round."`
}

// snapshot materializes the ingest pipeline's JSON view.
func (m *IngestMetrics) snapshot() IngestSnapshot {
	return IngestSnapshot{
		Enqueued:           m.Enqueued.Load(),
		Deduped:            m.Deduped.Load(),
		Rejected:           m.Rejected.Load(),
		Done:               m.Done.Load(),
		Failed:             m.Failed.Load(),
		QueueDepth:         m.depth.Load(),
		Running:            m.running.Load(),
		QueueWait:          m.QueueWait.Snapshot(),
		Run:                m.Run.Snapshot(),
		Compactions:        m.Compactions.Load(),
		CompactionNoops:    m.CompactionNoops.Load(),
		CompactionFailures: m.CompactionFailures.Load(),
		CompactedShards:    m.CompactedShards.Load(),
		CompactionRun:      m.CompactionRun.Snapshot(),
	}
}
