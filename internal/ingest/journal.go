package ingest

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"lotusx/internal/faults"
	"lotusx/internal/metrics"
)

// The durable ingest journal makes 202 Accepted a promise that survives a
// crash.  Before an admin ingest's job is enqueued (and so before its 202
// goes out), an accept record — dataset, shard, split factor, spool path,
// content hash — is appended to a journal file and fsync'd; when the job
// reaches a terminal state, a terminal record is appended (fsync'd) and only
// then is the spooled body deleted.  On restart, accepts without a terminal are the pending set: the
// server re-enqueues each one from its retained spool.  Replay is idempotent
// because corpus publication replaces same-name shards and groups — running
// an accept twice converges on the same corpus state.
//
// Jobs that die mid-run because the queue's context was cancelled (process
// shutdown) deliberately write NO terminal record, so they stay pending and
// replay.  Jobs that fail on their own error write a "failed" terminal —
// a poisoned body must not be retried on every restart forever.
//
// The journal file is JSON lines.  A crash can tear the final line; the
// reader stops at the first unparsable line, which by append ordering can
// only be the torn tail.  Opening the journal compacts it: the file is
// rewritten holding only the pending accepts, via the same temp + fsync +
// rename discipline the corpus manifest uses.

// FaultJournal names the injection site on every journal append; the key is
// "accept:<dataset>" or "terminal:<dataset>", so tests can fail exactly the
// accept (durability refused, the write answers 500) or exactly the
// terminal (the crash window after publish — replay must be idempotent).
const FaultJournal = "ingest/journal"

// journalName is the journal file's name inside its directory.
const journalName = "ingest.journal"

// Journal ops.  OpAccept opens an entry; the terminal ops close it.
const (
	OpAccept   = "accept"
	OpDone     = "done"     // the job ran to completion
	OpFailed   = "failed"   // the job ran and failed on its own error
	OpDeduped  = "deduped"  // the submission coalesced onto a live job
	OpRejected = "rejected" // the queue refused the job (full / closed)
)

// JournalRecord is one journal line.  Accept records carry the full job
// description; terminal records carry only the ID, op and error.
type JournalRecord struct {
	Op      string    `json:"op"`
	ID      string    `json:"id"`
	Kind    string    `json:"kind,omitempty"`    // accept: "dataset" or "shard"
	Dataset string    `json:"dataset,omitempty"` // accept
	Shard   string    `json:"shard,omitempty"`   // accept, kind "shard"
	Parts   int       `json:"parts,omitempty"`   // accept: the ?shards=N split factor
	Spool   string    `json:"spool,omitempty"`   // accept: path of the spooled body
	Bytes   int64     `json:"bytes,omitempty"`   // accept: spooled body size
	Hash    string    `json:"hash,omitempty"`    // accept: hex sha256 of the body
	Error   string    `json:"error,omitempty"`   // terminal "failed"
	At      time.Time `json:"at"`
}

// JournalConfig configures a Journal.
type JournalConfig struct {
	// Faults, when non-nil, arms the FaultJournal injection site.
	Faults *faults.Registry
	// Metrics, when non-nil, receives journal counters and the pending gauge.
	Metrics *metrics.LifecycleMetrics
	// Logger, when non-nil, logs recovery and append failures.
	Logger *slog.Logger
}

// Journal is the crash-safe accept/terminal log.  All methods are safe for
// concurrent use; appends are serialized and fsync'd before they return.
type Journal struct {
	dir string
	cfg JournalConfig

	mu      sync.Mutex
	f       *os.File
	seq     int64                    // last assigned numeric ID
	pending map[string]JournalRecord // accepts without a terminal, by ID
	closed  bool
}

// OpenJournal opens (creating if needed) the journal in dir, recovers the
// pending set from any prior process's log, and compacts the file down to
// those pending accepts.  Call Pending for the records to replay.
func OpenJournal(dir string, cfg JournalConfig) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{dir: dir, cfg: cfg, pending: make(map[string]JournalRecord)}
	path := filepath.Join(dir, journalName)
	if err := j.recover(path); err != nil {
		return nil, err
	}
	if err := j.compact(path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f = f
	j.gauge()
	return j, nil
}

// gauge publishes the current pending count.
func (j *Journal) gauge() {
	if m := j.cfg.Metrics; m != nil {
		m.SetJournalPending(len(j.pending))
	}
}

// recover replays the journal file into the pending map.  A torn final line
// (the crash was mid-append) ends the scan; everything before it is intact
// because appends are sequential and fsync'd.
func (j *Journal) recover(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec JournalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if lg := j.cfg.Logger; lg != nil {
				lg.Warn("ingest journal: torn record, stopping recovery here", "err", err)
			}
			break
		}
		if n := idSeq(rec.ID); n > j.seq {
			j.seq = n
		}
		if rec.Op == OpAccept {
			j.pending[rec.ID] = rec
		} else {
			delete(j.pending, rec.ID)
		}
	}
	return sc.Err()
}

// compact rewrites the journal to hold only the pending accepts — temp file,
// fsync, rename, directory sync, the corpus manifest's publish discipline.
func (j *Journal) compact(path string) error {
	tmp, err := os.CreateTemp(j.dir, journalName+".tmp*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer os.Remove(tmp.Name())
	enc := json.NewEncoder(tmp)
	for _, rec := range j.Pending() {
		if err := enc.Encode(rec); err != nil {
			tmp.Close()
			return fmt.Errorf("journal: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return syncDir(j.dir)
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// idSeq parses the numeric tail of a journal ID ("w000042" -> 42), 0 when
// the ID has another shape.
func idSeq(id string) int64 {
	if len(id) < 2 || id[0] != 'w' {
		return 0
	}
	var n int64
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int64(c-'0')
	}
	return n
}

// Pending returns the recovered accepts without a terminal record, in
// journal (ID) order — the set to replay after a restart.
func (j *Journal) Pending() []JournalRecord {
	j.mu.Lock()
	out := make([]JournalRecord, 0, len(j.pending))
	for _, rec := range j.pending {
		out = append(out, rec)
	}
	j.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return idSeq(out[a].ID) < idSeq(out[b].ID) })
	return out
}

// Accept durably records one accepted ingest before its 202 goes out,
// returning the journal ID the terminal record must quote.  An error means
// the durable promise cannot be made; the caller must fail the request and
// clean its spool itself.
func (j *Journal) Accept(ctx context.Context, rec JournalRecord) (string, error) {
	if err := j.cfg.Faults.Fire(ctx, FaultJournal, "accept:"+rec.Dataset); err != nil {
		return "", fmt.Errorf("journal accept: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return "", ErrClosed
	}
	j.seq++
	rec.Op = OpAccept
	rec.ID = fmt.Sprintf("w%06d", j.seq)
	rec.At = time.Now()
	if err := j.append(rec); err != nil {
		return "", err
	}
	j.pending[rec.ID] = rec
	if m := j.cfg.Metrics; m != nil {
		m.JournalAccepted.Add(1)
		m.SetJournalPending(len(j.pending))
	}
	return rec.ID, nil
}

// Terminal durably closes the identified accept with op (one of the
// terminal ops; jobErr fills the failure message for OpFailed) and then —
// only then — deletes the retained spool.  Unknown IDs are a no-op: the
// entry was already closed.  On an append error the entry stays pending and
// the spool stays on disk, so a restart replays the job; idempotent
// publication makes the retry safe.
func (j *Journal) Terminal(ctx context.Context, id, op string, jobErr error) error {
	j.mu.Lock()
	rec, ok := j.pending[id]
	if !ok || j.closed {
		j.mu.Unlock()
		return nil
	}
	if err := j.cfg.Faults.Fire(ctx, FaultJournal, "terminal:"+rec.Dataset); err != nil {
		j.mu.Unlock()
		if lg := j.cfg.Logger; lg != nil {
			lg.Warn("ingest journal: terminal append failed; job stays pending for replay", "id", id, "err", err)
		}
		return fmt.Errorf("journal terminal: %w", err)
	}
	t := JournalRecord{Op: op, ID: id, At: time.Now()}
	if jobErr != nil {
		t.Error = jobErr.Error()
	}
	if err := j.append(t); err != nil {
		j.mu.Unlock()
		if lg := j.cfg.Logger; lg != nil {
			lg.Warn("ingest journal: terminal append failed; job stays pending for replay", "id", id, "err", err)
		}
		return err
	}
	delete(j.pending, id)
	if m := j.cfg.Metrics; m != nil {
		m.JournalCompleted.Add(1)
		m.SetJournalPending(len(j.pending))
	}
	j.mu.Unlock()
	if rec.Spool != "" {
		os.Remove(rec.Spool)
	}
	return nil
}

// append writes one record and fsyncs.  Caller holds j.mu.
func (j *Journal) append(rec JournalRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if _, err := j.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// SpoolReferenced reports whether path is the retained spool of a pending
// record — the startup orphan sweep must not delete those.
func (j *Journal) SpoolReferenced(path string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, rec := range j.pending {
		if rec.Spool == path {
			return true
		}
	}
	return false
}

// Close closes the journal file.  Pending entries stay pending — that is
// the point: they replay on the next open.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	return j.f.Close()
}
