package metrics

import (
	"sync/atomic"
)

// LifecycleMetrics aggregates the server's lifecycle-robustness tier: the
// graceful-drain state machine (SIGTERM flips the draining gauge, new work
// is refused while in-flight requests finish) and the durable ingest
// journal (fsync'd accept/terminal records, replay on restart, orphan spool
// sweep).  All fields are safe for concurrent use.
type LifecycleMetrics struct {
	draining      atomic.Bool  // true while the server is draining for shutdown
	DrainRejected atomic.Int64 // requests refused with 503 during drain

	JournalAccepted  atomic.Int64 // accept records written (durable 202 promises)
	JournalCompleted atomic.Int64 // terminal records written (done, failed, deduped)
	JournalReplayed  atomic.Int64 // pending records re-enqueued at startup
	journalPending   atomic.Int64 // accepted jobs without a terminal record
	OrphansSwept     atomic.Int64 // orphaned spool files removed at startup
}

// SetDraining records whether the server is draining (the /readyz flip).
func (m *LifecycleMetrics) SetDraining(on bool) { m.draining.Store(on) }

// SetJournalPending records the journal's live pending-record count.
func (m *LifecycleMetrics) SetJournalPending(n int) { m.journalPending.Store(int64(n)) }

// LifecycleSnapshot is the JSON shape of the lifecycle metrics.
type LifecycleSnapshot struct {
	Draining         bool  `json:"draining" prom:"lotusx_lifecycle_draining,gauge" help:"1 while the server drains for shutdown (readyz answers draining, new work is refused)."`
	DrainRejected    int64 `json:"drainRejected,omitempty" prom:"lotusx_lifecycle_drain_rejected_total,counter" help:"Requests refused with 503 while the server was draining."`
	JournalAccepted  int64 `json:"journalAccepted,omitempty" prom:"lotusx_lifecycle_journal_accepted_total,counter" help:"Ingest-journal accept records written (durable 202 promises)."`
	JournalCompleted int64 `json:"journalCompleted,omitempty" prom:"lotusx_lifecycle_journal_completed_total,counter" help:"Ingest-journal terminal records written."`
	JournalReplayed  int64 `json:"journalReplayed,omitempty" prom:"lotusx_lifecycle_journal_replayed_total,counter" help:"Pending journal records re-enqueued at startup."`
	JournalPending   int64 `json:"journalPending,omitempty" prom:"lotusx_lifecycle_journal_pending,gauge" help:"Accepted ingest jobs without a terminal journal record."`
	OrphansSwept     int64 `json:"orphanSpoolsSwept,omitempty" prom:"lotusx_lifecycle_spool_orphans_swept_total,counter" help:"Orphaned ingest spool files removed at startup."`
}

func (m *LifecycleMetrics) snapshot() LifecycleSnapshot {
	return LifecycleSnapshot{
		Draining:         m.draining.Load(),
		DrainRejected:    m.DrainRejected.Load(),
		JournalAccepted:  m.JournalAccepted.Load(),
		JournalCompleted: m.JournalCompleted.Load(),
		JournalReplayed:  m.JournalReplayed.Load(),
		JournalPending:   m.journalPending.Load(),
		OrphansSwept:     m.OrphansSwept.Load(),
	}
}

// AdmissionMetrics aggregates per-client admission control (the token-bucket
// rate limiter in internal/httpmw).
type AdmissionMetrics struct {
	Allowed atomic.Int64 // requests that consumed a token and proceeded
	Limited atomic.Int64 // requests refused with 429 + Retry-After
	Evicted atomic.Int64 // idle client buckets evicted from the table
	clients atomic.Int64 // live client buckets (gauge)
}

// SetClients records the live client-bucket count.
func (m *AdmissionMetrics) SetClients(n int) { m.clients.Store(int64(n)) }

// AdmissionSnapshot is the JSON shape of the admission-control metrics.
type AdmissionSnapshot struct {
	Allowed int64 `json:"allowed" prom:"lotusx_admission_allowed_total,counter" help:"Requests that passed the per-client rate limiter."`
	Limited int64 `json:"limited" prom:"lotusx_admission_limited_total,counter" help:"Requests refused with 429 + Retry-After by the per-client rate limiter."`
	Evicted int64 `json:"evicted,omitempty" prom:"lotusx_admission_evicted_total,counter" help:"Idle client token buckets evicted from the limiter table."`
	Clients int64 `json:"clients" prom:"lotusx_admission_clients,gauge" help:"Live client token buckets in the limiter table."`
}

func (m *AdmissionMetrics) snapshot() AdmissionSnapshot {
	return AdmissionSnapshot{
		Allowed: m.Allowed.Load(),
		Limited: m.Limited.Load(),
		Evicted: m.Evicted.Load(),
		Clients: m.clients.Load(),
	}
}
