package server

import (
	"context"
	"os"
	"path/filepath"

	"lotusx/internal/ingest"
)

// Lifecycle: graceful drain plus the durable ingest journal.
//
// # Drain
//
// BeginDrain flips the server into draining: /readyz reports not ready (so
// load balancers stop routing here), and admission in the request envelope
// answers new non-exempt requests 503 + Retry-After while requests already
// admitted finish normally.  Drain then waits for the ingest
// queue to empty under the caller's deadline.  cmd/lotusx-server wires
// SIGTERM to BeginDrain + http.Server.Shutdown + Drain, so a rolling restart
// completes in-flight queries and accepted ingests instead of dropping them.
//
// # Journal
//
// With EnableAdmin and a CorpusDir, every accepted ingest — ?sync=1 or not —
// is recorded in a crash-safe journal under <CorpusDir>/_journal/ before its
// job is enqueued (see ingest.Journal and submit).  On startup the server replays accepts that never
// reached a terminal record — one sequential job per dataset, preserving the
// create-before-shard order within it — and sweeps spool files no pending
// record references.

// journalDirName is the journal's directory under CorpusDir.  The leading
// underscore keeps it out of the dataset namespace: dataset names must start
// with an alphanumeric (nameRE), and the corpus reload skips directories
// without a manifest.
const journalDirName = "_journal"

// BeginDrain flips the server into draining (idempotent).  New non-exempt
// requests are refused at admission; /readyz reports not ready.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.reg.Lifecycle().SetDraining(true)
		s.logger.Info("drain started: refusing new work, finishing in-flight requests and queued ingests")
	}
}

// Drain begins draining (if not already begun) and waits, up to ctx's
// deadline, for the ingest queue to finish queued and running jobs.  The
// journal stays open until Close so late terminal records still land.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	if s.queue == nil {
		return nil
	}
	err := s.queue.Drain(ctx)
	if err != nil {
		s.logger.Warn("drain deadline expired with ingest jobs unfinished; journaled jobs will replay on restart", "err", err)
	} else {
		s.logger.Info("drain complete: ingest queue empty")
	}
	return err
}

// startJournal opens the journal at startup when prior state exists on disk
// (replaying pending accepts and sweeping orphaned spools).  A brand-new
// deployment — no corpus directory yet — defers creation to the first
// accepted ingest, so a server that only ever rejects writes leaves no
// footprint (the traversal-name tests rely on that).
func (s *Server) startJournal() {
	if _, err := os.Stat(s.corpusDir); err != nil {
		return
	}
	if s.ensureJournal() == nil {
		return
	}
	s.replayJournal()
	s.sweepOrphanSpools()
}

// ensureJournal returns the journal, opening it on first use.  A journal
// that cannot open is a fault of the journal alone: the server logs, marks
// it off, and keeps serving without durability rather than failing writes
// forever.
func (s *Server) ensureJournal() *ingest.Journal {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	if s.journal != nil || s.journalOff || s.corpusDir == "" {
		return s.journal
	}
	j, err := ingest.OpenJournal(filepath.Join(s.corpusDir, journalDirName), ingest.JournalConfig{
		Faults:  s.faults,
		Metrics: s.reg.Lifecycle(),
		Logger:  s.logger,
	})
	if err != nil {
		s.journalOff = true
		s.logger.Error("ingest journal unavailable: accepted writes will not survive a crash", "err", err)
		return nil
	}
	s.journal = j
	return j
}

// journalRef returns the journal if it has been opened, without opening it.
func (s *Server) journalRef() *ingest.Journal {
	s.journalMu.Lock()
	defer s.journalMu.Unlock()
	return s.journal
}

// replayJournal re-enqueues every pending accept, grouped into one
// sequential job per dataset so a journaled dataset create always runs
// before that dataset's journaled shard adds.
func (s *Server) replayJournal() {
	pending := s.journal.Pending()
	if len(pending) == 0 {
		return
	}
	byDataset := make(map[string][]ingest.JournalRecord)
	var order []string
	for _, rec := range pending {
		if len(byDataset[rec.Dataset]) == 0 {
			order = append(order, rec.Dataset)
		}
		byDataset[rec.Dataset] = append(byDataset[rec.Dataset], rec)
	}
	lc := s.reg.Lifecycle()
	for _, ds := range order {
		recs := byDataset[ds]
		_, _, err := s.queue.Enqueue(ingest.Request{
			Kind:    "replay",
			Dataset: ds,
			Key:     "replay:" + ds,
			Run: func(ctx context.Context) (ingest.Result, error) {
				var last ingest.Result
				for _, rec := range recs {
					res, err := s.apply(rec)
					s.settle(ctx, rec.ID, err)
					if err != nil {
						return last, err
					}
					last = res
				}
				return last, nil
			},
		})
		if err != nil {
			s.logger.Warn("journal replay deferred: queue refused the job; records stay pending", "dataset", ds, "err", err)
			continue
		}
		lc.JournalReplayed.Add(int64(len(recs)))
		s.logger.Info("replaying journaled ingests", "dataset", ds, "records", len(recs))
	}
}

// settle writes the terminal journal record of accept id for a job that
// ended with err — for live jobs and replayed ones alike; id "" (no
// journal) is a no-op.  A job killed by shutdown writes no terminal: the
// accept stays pending, its spool stays on disk, and the next start replays
// it.  A failure is terminal, a missing spool included: the body is gone,
// the promise cannot be kept, and retrying forever would not bring it back.
func (s *Server) settle(ctx context.Context, id string, err error) {
	switch {
	case id == "":
	case err == nil:
		s.journalRef().Terminal(ctx, id, ingest.OpDone, nil)
	case isCtxError(err) && ctx.Err() != nil:
	default:
		s.journalRef().Terminal(ctx, id, ingest.OpFailed, err)
	}
}

// sweepOrphanSpools removes ingest spool files in the corpus directory that
// no pending journal record references — bodies whose job finished but whose
// deletion a crash interrupted, or pre-journal leftovers.  Mirrors the
// corpus reload's sweep of stale MANIFEST.json.tmp* files.
func (s *Server) sweepOrphanSpools() {
	paths, err := filepath.Glob(filepath.Join(s.corpusDir, "ingest-spool-*.xml"))
	if err != nil || len(paths) == 0 {
		return
	}
	lc := s.reg.Lifecycle()
	swept := 0
	for _, p := range paths {
		if s.journal != nil && s.journal.SpoolReferenced(p) {
			continue
		}
		if os.Remove(p) == nil {
			swept++
		}
	}
	if swept > 0 {
		lc.OrphansSwept.Add(int64(swept))
		s.logger.Info("swept orphaned ingest spool files", "count", swept)
	}
}
