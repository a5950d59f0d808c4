package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"

	"lotusx/internal/ingest"
)

// The jobs API exposes the async ingestion pipeline (internal/ingest):
//
//	GET /api/v1/jobs          every retained job, newest first
//	GET /api/v1/jobs/{id}     one job's status — poll until "done"/"failed"
//
// Admin writes that enqueue work answer 202 Accepted with {"job": {...}}
// and a Location header pointing at the job's poll URL; the job object is
// the same shape everywhere.  See docs/API.md for the lifecycle.

// jobEnvelope wraps one job — the body of the 202 responses and of
// GET /api/v1/jobs/{id}.
type jobEnvelope struct {
	Job ingest.Job `json:"job"`
}

// jobsEnvelope wraps the job listing.
type jobsEnvelope struct {
	Jobs []ingest.Job `json:"jobs"`
}

// jobLocation is the poll URL of a job.
func jobLocation(id string) string { return "/api/v1/jobs/" + id }

// submit is the admin surface's one write path: it enqueues req and answers
// for it.  An ingest passes rec, its body already spooled: with a journal
// the accept is recorded durably before the job is enqueued (and settled
// when the job ends, see settle); without one the spool is the job's
// Cleanup.  A submission that coalesces onto a live identical job, or that
// the queue refuses, settles its accept at once.
//
// The answer is 202 + {"job": ...} + Location, or with ?sync=1 the job's
// outcome once it is terminal: 201 + {"status": ...} for an ingest (400
// with the job's error when it failed), 200 + {"job": ...} for a
// compaction, 504 when the request's deadline expires first.  A full or
// closed queue answers 503 either way.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, req ingest.Request, rec *ingest.JournalRecord) {
	var j *ingest.Journal
	if rec != nil {
		if j = s.ensureJournal(); j == nil {
			req.Cleanup = func() { os.Remove(rec.Spool) }
		} else {
			id, err := j.Accept(r.Context(), *rec)
			if err != nil {
				// The durable promise cannot be made, so no 202 is made either.
				os.Remove(rec.Spool)
				internalError(w, r, err)
				return
			}
			rec.ID = id
		}
		req.Run = func(ctx context.Context) (ingest.Result, error) {
			res, err := s.apply(*rec)
			s.settle(ctx, rec.ID, err)
			return res, err
		}
	}
	job, created, err := s.queue.Enqueue(req)
	switch {
	case j == nil:
	case err != nil:
		j.Terminal(r.Context(), rec.ID, ingest.OpRejected, err)
	case !created:
		// Coalesced onto a live identical job: that job's terminal record is
		// the one that matters; this accept is settled (and its spool freed).
		j.Terminal(r.Context(), rec.ID, ingest.OpDeduped, nil)
	}
	if err != nil {
		if errors.Is(err, ingest.ErrQueueFull) || errors.Is(err, ingest.ErrClosed) {
			overloaded(w, r, err)
		} else {
			internalError(w, r, err)
		}
		return
	}
	if !syncRequested(r) {
		w.Header().Set("Location", jobLocation(job.ID))
		writeJSON(w, http.StatusAccepted, jobEnvelope{Job: job})
		return
	}
	final, err := s.queue.Wait(r.Context(), job.ID)
	switch {
	case isCtxError(err):
		writeCtxError(w, r, err)
	case err != nil: // the job aged out of retention before Wait found it
		internalError(w, r, err)
	case rec == nil:
		writeJSON(w, http.StatusOK, jobEnvelope{Job: final})
	case final.State == ingest.StateFailed:
		badQuery(w, r, errors.New(final.Error))
	default:
		c, err := s.corpusFor(rec.Dataset)
		if err != nil {
			notFound(w, r, err)
			return
		}
		writeStatus(w, http.StatusCreated, r.URL.Path, statusOf(rec.Dataset, c))
	}
}

// handleJobs lists every retained job, newest enqueue first.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	jobs := s.queue.List()
	if jobs == nil {
		jobs = []ingest.Job{}
	}
	writeJSON(w, http.StatusOK, jobsEnvelope{Jobs: jobs})
}

// handleJob reports one job's status.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.queue.Get(id)
	if err != nil {
		notFound(w, r, fmt.Errorf("no job %q (terminal jobs age out of retention)", id))
		return
	}
	writeJSON(w, http.StatusOK, jobEnvelope{Job: job})
}

// maybeCompact schedules a background compaction of name when its delta
// backlog has crossed the threshold.  Called from a finished delta-shard
// job; the per-dataset dedup key means at most one compaction is ever
// queued or running per dataset, and a full queue just defers the work to
// the next ingest.
func (s *Server) maybeCompact(name string) {
	if s.compactThreshold <= 0 || s.queue == nil {
		return
	}
	c, err := s.corpusFor(name)
	if err != nil || c.DeltaShards() < s.compactThreshold {
		return
	}
	s.queue.Enqueue(s.compactJob(name))
}

// compactJob is the compaction job for name.
func (s *Server) compactJob(name string) ingest.Request {
	return ingest.Request{
		Kind:    "compact",
		Dataset: name,
		Key:     "compact:" + name,
		Run: func(ctx context.Context) (ingest.Result, error) {
			return s.runCompaction(ctx, name)
		},
	}
}

// runCompaction folds name's delta shards into base shards, recording the
// round in the ingest metrics.
func (s *Server) runCompaction(ctx context.Context, name string) (ingest.Result, error) {
	c, err := s.corpusFor(name)
	if err != nil {
		return ingest.Result{}, err
	}
	im := s.reg.Ingest()
	res, err := c.CompactDeltas(ctx, 0)
	if err != nil {
		im.CompactionFailures.Add(1)
		return ingest.Result{}, err
	}
	if res == nil { // no deltas: nothing to do is not an error
		im.CompactionNoops.Add(1)
		return ingest.Result{}, nil
	}
	im.Compactions.Add(1)
	im.CompactedShards.Add(int64(res.Merged))
	im.CompactionRun.Observe(res.Elapsed)
	return ingest.Result{Shards: len(res.Into), Seq: res.Seq}, nil
}

// handleCompact explicitly folds a dataset's delta shards into base shards
// as a "compact" job (see submit).
//
//	POST /api/v1/datasets/{name}/compact
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, err := s.corpusFor(name); err != nil {
		notFound(w, r, err)
		return
	}
	s.submit(w, r, s.compactJob(name), nil)
}
