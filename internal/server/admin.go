package server

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"

	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/doc"
	"lotusx/internal/ingest"
	"lotusx/internal/metrics"
)

// The admin surface (mounted only with Config.EnableAdmin) manages served
// datasets without a restart.  Admin-created datasets are corpus-backed, so
// shards can be added and dropped while queries keep flowing — every
// mutation publishes an atomic snapshot, in-flight requests finish on the
// snapshot they pinned.
//
//	POST   /api/v1/datasets/{name}?shards=N      ingest body XML as a new dataset
//	DELETE /api/v1/datasets/{name}               drop a dataset
//	POST   /api/v1/datasets/{name}/shards/{shard}?shards=N   ingest body XML as shard(s)
//	DELETE /api/v1/datasets/{name}/shards/{shard}            drop one shard (or split group)
//	POST   /api/v1/datasets/{name}/compact                   fold delta shards into base shards
//
// Ingest bodies are raw XML documents.  ?shards=N > 1 splits the document at
// record boundaries into N shards (see corpus.SplitDocument).  Dataset and
// shard names are strict path segments (see nameRE): dataset names become
// directories under CorpusDir, so anything traversal-shaped is rejected
// before it reaches the filesystem.
//
// # One write path
//
// Every ingest is a job on the bounded worker pool (internal/ingest): the
// body is spooled to a temp file (hashed while it streams), the accept is
// journaled when a CorpusDir exists, and the job is enqueued.  By default
// the response is 202 Accepted with a {"job": ...} envelope plus a Location
// header pointing at /api/v1/jobs/{id} for polling.  Identical concurrent
// submissions (same dataset, same content hash, same split factor) coalesce
// onto one job.  ?sync=1 submits the same job and waits for it: 201 +
// {"status": ...} once it is done, 400 with its error when it failed, 503
// when the queue is full, 504 when the request's deadline expires first
// (the job still runs to completion).
//
// A dataset create replaces the whole shard set (base shards); a shard add
// lands as a DELTA shard — a small independent shard published without
// touching the base set — and a background compaction job folds
// accumulated deltas into base shards once the dataset crosses the
// compaction threshold (or on explicit POST .../compact).  See docs/API.md
// for the jobs lifecycle.

// maxIngestSize bounds admin ingest bodies — far above query bodies, since
// whole datasets arrive here.
const maxIngestSize = 256 << 20 // 256 MiB

// corpusFor resolves an admin route's dataset to its corpus.
func (s *Server) corpusFor(name string) (*corpus.Corpus, error) {
	b, err := s.catalog.GetBackend(name)
	if err != nil {
		return nil, err
	}
	c, ok := b.(*corpus.Corpus)
	if !ok {
		return nil, fmt.Errorf("dataset %q is a single document, not a corpus; shard management needs a corpus-backed dataset", name)
	}
	return c, nil
}

// nameRE is the shape of a dataset or shard path segment.  It is
// deliberately strict — one alphanumeric-led filesystem- and URL-safe
// token.  Dataset names become directories under CorpusDir, and Go's
// ServeMux unescapes wildcard segments, so a request for
// /api/v1/datasets/..%2Fetc would otherwise reach us as name "../etc";
// the leading-alphanumeric rule rejects "." and ".." (and hidden files),
// and the charset rejects separators outright.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// validSegment rejects dataset and shard names that could escape the
// corpus directory or break route addressing.
func validSegment(kind, name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("bad %s name %q: want 1-128 chars of [A-Za-z0-9._-], starting with a letter or digit", kind, name)
	}
	return nil
}

// shardCount parses the optional ?shards=N split factor.
func shardCount(r *http.Request) (int, error) {
	v := r.URL.Query().Get("shards")
	if v == "" {
		return 1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 || n > 1024 {
		return 0, fmt.Errorf("bad shards %q: want 1..1024", v)
	}
	return n, nil
}

// syncRequested reports ?sync=1: answer a write with its job's outcome
// instead of 202.
func syncRequested(r *http.Request) bool {
	return r.URL.Query().Get("sync") == "1"
}

// datasetStatus is the typed status object of every dataset/shard write
// route's success envelope, {"status": {...}}.
type datasetStatus struct {
	Dataset string `json:"dataset"`
	Shards  int    `json:"shards"`
	// DeltaShards counts shard-add delta shards awaiting compaction.
	DeltaShards int      `json:"deltaShards,omitempty"`
	Seq         uint64   `json:"seq"`
	Names       []string `json:"shardNames,omitempty"`
	// Removed marks the response of a successful DELETE.
	Removed bool `json:"removed,omitempty"`
	// Default names the catalog's default dataset after a DELETE changed it.
	Default string `json:"default,omitempty"`
}

// statusEnvelope wraps datasetStatus — the uniform success body of the
// mutating admin routes.
type statusEnvelope struct {
	Status datasetStatus `json:"status"`
}

func statusOf(name string, c *corpus.Corpus) datasetStatus {
	snap := c.Snapshot()
	return datasetStatus{
		Dataset:     name,
		Shards:      snap.Len(),
		DeltaShards: snap.DeltaCount(),
		Seq:         snap.Seq(),
		Names:       snap.Names(),
	}
}

// writeStatus answers a successful mutation: the {"status": ...} envelope,
// with a Location header on resource-creating statuses (201/202).
func writeStatus(w http.ResponseWriter, code int, location string, st datasetStatus) {
	if location != "" && (code == http.StatusCreated || code == http.StatusAccepted) {
		w.Header().Set("Location", location)
	}
	writeJSON(w, code, statusEnvelope{Status: st})
}

// spoolBody streams the request body to a temp file, hashing as it copies,
// and records the file's path, size and hash in rec.  The handler spools
// before it answers, so the job needs no live connection and identical
// uploads dedup by content.  The caller owns the file and must arrange
// cleanup on every path.
func (s *Server) spoolBody(w http.ResponseWriter, r *http.Request, rec *ingest.JournalRecord) error {
	dir := os.TempDir()
	if s.corpusDir != "" {
		// Spool next to the corpus directories: same filesystem as the final
		// shard files, and a place the operator already watches for space.
		if err := os.MkdirAll(s.corpusDir, 0o755); err == nil {
			dir = s.corpusDir
		}
	}
	f, err := os.CreateTemp(dir, "ingest-spool-*.xml")
	if err != nil {
		return fmt.Errorf("spooling ingest body: %w", err)
	}
	h := sha256.New()
	n, err := io.Copy(io.MultiWriter(f, h), http.MaxBytesReader(w, r.Body, s.maxIngest))
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	rec.Spool, rec.Bytes, rec.Hash = f.Name(), n, hex.EncodeToString(h.Sum(nil))
	return nil
}

// submitIngest spools the request body into rec and submits the job that
// applies it — the shared tail of the dataset-create and shard-add routes.
func (s *Server) submitIngest(w http.ResponseWriter, r *http.Request, rec ingest.JournalRecord) {
	if err := s.spoolBody(w, r, &rec); err != nil {
		// 413 for an over-limit body, 400 for anything else (a truncated upload).
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			tooLarge(w, r, err)
		} else {
			badQuery(w, r, err)
		}
		return
	}
	s.submit(w, r, ingest.Request{
		Kind:    rec.Kind,
		Dataset: rec.Dataset,
		Key:     fmt.Sprintf("%s:%s/%s:%s:%d", rec.Kind, rec.Dataset, rec.Shard, rec.Hash, rec.Parts),
		Bytes:   rec.Bytes,
	}, &rec)
}

// apply runs one ingest from its spooled body — the one body of every
// dataset and shard job, live or replayed from the journal.
func (s *Server) apply(rec ingest.JournalRecord) (ingest.Result, error) {
	f, err := os.Open(rec.Spool)
	if err != nil {
		return ingest.Result{}, err
	}
	defer f.Close()
	var st datasetStatus
	switch rec.Kind {
	case "dataset":
		st, err = s.createDataset(rec.Dataset, f, rec.Parts)
	case "shard":
		if st, err = s.addShard(rec.Dataset, rec.Shard, f, rec.Parts); err == nil {
			s.maybeCompact(rec.Dataset)
		}
	default:
		err = fmt.Errorf("journal: unknown record kind %q", rec.Kind)
	}
	if err != nil {
		return ingest.Result{}, err
	}
	return ingest.Result{Shards: st.Shards, Seq: st.Seq}, nil
}

// createDataset ingests body as a new (or replacement) corpus-backed dataset
// split into parts shards — the body of every "dataset" job (see apply).
// Creates are serialized under adminMu: re-POSTing a live corpus-backed name
// replaces its whole shard set through the existing corpus object (one
// snapshot swap, the sequence keeps climbing), so two creates can never
// interleave writes to the same persistence directory.
func (s *Server) createDataset(name string, body io.Reader, parts int) (datasetStatus, error) {
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	dir := ""
	if s.corpusDir != "" {
		dir = filepath.Join(s.corpusDir, name)
	}
	var c *corpus.Corpus
	var replaced core.Backend
	if b, err := s.catalog.GetBackend(name); err == nil {
		if existing, ok := b.(*corpus.Corpus); ok && existing.Dir() == dir {
			c = existing
		} else {
			replaced = b
		}
	}
	if c == nil {
		c = corpus.New(name, corpus.Config{
			Dir:     dir,
			Metrics: s.reg.Corpus(name),
			Tuning:  s.corpusTuning,
			Logger:  s.logger,
			Faults:  s.faults,
		})
	}
	d, err := doc.FromReader(name, body)
	if err == nil {
		err = c.SetSplit(name, d, parts)
	}
	if err != nil {
		return datasetStatus{}, fmt.Errorf("ingesting %q: %w", name, err)
	}
	s.catalog.AddBackend(name, c)
	if replaced != nil {
		// The name now resolves to a brand-new backend whose generation
		// counter restarts from zero; drop the old wrapper so its cached
		// entries can never be keyed identically to the new dataset's.
		// (Re-ingest through the SAME corpus needs no drop: the snapshot
		// swap bumps the generation, which is part of every cache key.)
		s.dropCached(replaced)
	}
	return statusOf(name, c), nil
}

// handleDatasetCreate ingests the XML body as a new (or replacement)
// corpus-backed dataset, optionally split into ?shards=N shards, as a
// "dataset" job (see submit).
func (s *Server) handleDatasetCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := validSegment("dataset", name); err != nil {
		badQuery(w, r, err)
		return
	}
	parts, err := shardCount(r)
	if err != nil {
		badQuery(w, r, err)
		return
	}
	s.submitIngest(w, r, ingest.JournalRecord{Kind: "dataset", Dataset: name, Parts: parts})
}

// handleDatasetDelete drops a dataset (engine- or corpus-backed) from the
// catalog and its corpus from the metrics registry.  A corpus persisted
// under CorpusDir also loses its on-disk directory — otherwise the next
// restart's corpus reload would resurrect the dataset.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.adminMu.Lock()
	defer s.adminMu.Unlock()
	b, err := s.catalog.GetBackend(name)
	if err != nil || name == "" {
		notFound(w, r, fmt.Errorf("no dataset %q in catalog", name))
		return
	}
	if err := s.catalog.Remove(name); err != nil {
		notFound(w, r, err)
		return
	}
	s.dropCached(b)
	if c, ok := b.(*corpus.Corpus); ok {
		s.reg.DropCorpus(name)
		// Only purge directories directly under our own corpus root; the
		// corpus's recorded dir — not a fresh join of the request's name —
		// is what gets deleted, so a hostile name cannot aim this at
		// anything we did not create.
		if dir := c.Dir(); dir != "" && s.corpusDir != "" && filepath.Dir(dir) == filepath.Clean(s.corpusDir) {
			os.RemoveAll(dir)
		}
	}
	writeStatus(w, http.StatusOK, "", datasetStatus{
		Dataset: name, Removed: true, Default: s.catalog.DefaultName(),
	})
}

// addShard ingests body as one delta shard (or a ?shards=N split group of
// them) of an existing corpus-backed dataset — the body of every "shard" job
// (see apply).  Delta shards are published without touching the base set
// and left for compaction.
func (s *Server) addShard(name, shard string, body io.Reader, parts int) (datasetStatus, error) {
	c, err := s.corpusFor(name)
	if err != nil {
		return datasetStatus{}, err
	}
	d, err := doc.FromReader(shard, body)
	if err == nil {
		err = c.AddDeltaSplit(shard, d, parts)
	}
	if err != nil {
		return datasetStatus{}, fmt.Errorf("ingesting shard %q: %w", shard, err)
	}
	return statusOf(name, c), nil
}

// handleShardAdd ingests the XML body as one delta shard (or, with
// ?shards=N, a split group) of an existing corpus-backed dataset, as a
// "shard" job (see submit); crossing the compaction threshold schedules a
// background compaction.
func (s *Server) handleShardAdd(w http.ResponseWriter, r *http.Request) {
	name, shard := r.PathValue("name"), r.PathValue("shard")
	// Shard names never touch the filesystem (shard files are named by
	// sequence), but the same strict shape keeps them addressable in the
	// delete and health routes and unambiguous in the "name/NNN" group scheme.
	if err := validSegment("shard", shard); err != nil {
		badQuery(w, r, err)
		return
	}
	if _, err := s.corpusFor(name); err != nil {
		notFound(w, r, err)
		return
	}
	parts, err := shardCount(r)
	if err != nil {
		badQuery(w, r, err)
		return
	}
	s.submitIngest(w, r, ingest.JournalRecord{Kind: "shard", Dataset: name, Shard: shard, Parts: parts})
}

// handleShardDelete drops one shard (or a whole split group) from a
// corpus-backed dataset.
func (s *Server) handleShardDelete(w http.ResponseWriter, r *http.Request) {
	name, shard := r.PathValue("name"), r.PathValue("shard")
	c, err := s.corpusFor(name)
	if err != nil {
		notFound(w, r, err)
		return
	}
	if err := c.Remove(shard); err != nil {
		notFound(w, r, err)
		return
	}
	writeStatus(w, http.StatusOK, "", statusOf(name, c))
}

// shardHealthStatus is the payload of the shard-health admin routes.
type shardHealthStatus struct {
	Dataset string              `json:"dataset"`
	Shard   string              `json:"shard"`
	Health  metrics.ShardHealth `json:"health"`
	// Reset reports that this response follows a breaker reset (POST).
	Reset bool `json:"reset,omitempty"`
}

// handleShardHealth reports one shard's circuit-breaker state.
//
//	GET /api/v1/datasets/{name}/shards/{shard}/health
func (s *Server) handleShardHealth(w http.ResponseWriter, r *http.Request) {
	name, shard := r.PathValue("name"), r.PathValue("shard")
	c, err := s.corpusFor(name)
	if err != nil {
		notFound(w, r, err)
		return
	}
	h, err := c.ShardHealthOf(shard)
	if err != nil {
		notFound(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, shardHealthStatus{Dataset: name, Shard: shard, Health: h})
}

// handleShardHealthReset force-closes one shard's circuit breaker — the
// operator's "I fixed it, let traffic back in" lever; the next fan-out
// evaluates the shard immediately instead of waiting out the cooldown.
//
//	POST /api/v1/datasets/{name}/shards/{shard}/health
func (s *Server) handleShardHealthReset(w http.ResponseWriter, r *http.Request) {
	name, shard := r.PathValue("name"), r.PathValue("shard")
	c, err := s.corpusFor(name)
	if err != nil {
		notFound(w, r, err)
		return
	}
	if err := c.ResetShardHealth(shard); err != nil {
		notFound(w, r, err)
		return
	}
	h, err := c.ShardHealthOf(shard)
	if err != nil {
		notFound(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, shardHealthStatus{Dataset: name, Shard: shard, Health: h, Reset: true})
}
