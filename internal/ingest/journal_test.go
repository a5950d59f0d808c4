package ingest

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lotusx/internal/faults"
	"lotusx/internal/metrics"
)

func openTestJournal(t *testing.T, dir string, cfg JournalConfig) *Journal {
	t.Helper()
	j, err := OpenJournal(dir, cfg)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func spoolFile(t *testing.T, dir, name string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte("<doc/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestJournalAcceptTerminalLifecycle(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, filepath.Join(dir, "_journal"), JournalConfig{})
	spool := spoolFile(t, dir, "spool.xml")

	id, err := j.Accept(context.Background(), JournalRecord{
		Kind: "dataset", Dataset: "lib", Parts: 2, Spool: spool, Bytes: 6, Hash: "abc",
	})
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	if !strings.HasPrefix(id, "w") {
		t.Fatalf("id = %q", id)
	}
	if p := j.Pending(); len(p) != 1 || p[0].ID != id || p[0].Dataset != "lib" {
		t.Fatalf("pending = %+v", p)
	}
	if !j.SpoolReferenced(spool) {
		t.Fatal("spool not referenced while pending")
	}

	if err := j.Terminal(context.Background(), id, OpDone, nil); err != nil {
		t.Fatalf("Terminal: %v", err)
	}
	if p := j.Pending(); len(p) != 0 {
		t.Fatalf("pending after terminal = %+v", p)
	}
	if _, err := os.Stat(spool); !os.IsNotExist(err) {
		t.Fatal("spool not deleted after terminal record")
	}
	// Terminal on a closed entry is a no-op, not an error.
	if err := j.Terminal(context.Background(), id, OpDone, nil); err != nil {
		t.Fatalf("repeat Terminal: %v", err)
	}
}

func TestJournalRecoversPendingAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "_journal")
	j := openTestJournal(t, jdir, JournalConfig{})
	ctx := context.Background()

	var ids []string
	for _, ds := range []string{"a", "b", "c"} {
		id, err := j.Accept(ctx, JournalRecord{Kind: "dataset", Dataset: ds, Spool: spoolFile(t, dir, ds+".xml")})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := j.Terminal(ctx, ids[1], OpDone, nil); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openTestJournal(t, jdir, JournalConfig{})
	p := j2.Pending()
	if len(p) != 2 || p[0].Dataset != "a" || p[1].Dataset != "c" {
		t.Fatalf("recovered pending = %+v", p)
	}
	// Reopening compacted the file down to the pending accepts.
	b, err := os.ReadFile(filepath.Join(jdir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(b), "\n"); n != 2 {
		t.Fatalf("compacted journal has %d lines, want 2:\n%s", n, b)
	}
	// New IDs continue past the recovered sequence — no reuse.
	id, err := j2.Accept(ctx, JournalRecord{Kind: "dataset", Dataset: "d"})
	if err != nil {
		t.Fatal(err)
	}
	if idSeq(id) <= idSeq(ids[2]) {
		t.Fatalf("new id %q does not advance past recovered %q", id, ids[2])
	}
}

func TestJournalToleratesTornFinalLine(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "_journal")
	j := openTestJournal(t, jdir, JournalConfig{})
	ctx := context.Background()
	if _, err := j.Accept(ctx, JournalRecord{Kind: "dataset", Dataset: "kept"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn, unparsable final line.
	path := filepath.Join(jdir, journalName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"accept","id":"w0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openTestJournal(t, jdir, JournalConfig{})
	p := j2.Pending()
	if len(p) != 1 || p[0].Dataset != "kept" {
		t.Fatalf("pending after torn tail = %+v", p)
	}
	// The compaction on open rewrote the file without the torn tail.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"w0000`+"\n") || !strings.HasSuffix(string(b), "\n") {
		t.Fatalf("torn tail survived compaction:\n%s", b)
	}
}

func TestJournalAcceptFaultRefusesDurably(t *testing.T) {
	reg := faults.New()
	reg.Enable(faults.Injection{
		Site: FaultJournal,
		Keys: []string{"accept:lib"},
		Err:  errors.New("disk full"),
	})
	dir := t.TempDir()
	j := openTestJournal(t, filepath.Join(dir, "_journal"), JournalConfig{Faults: reg})

	if _, err := j.Accept(context.Background(), JournalRecord{Kind: "dataset", Dataset: "lib"}); err == nil {
		t.Fatal("Accept with armed fault succeeded")
	}
	if p := j.Pending(); len(p) != 0 {
		t.Fatalf("failed accept left pending state: %+v", p)
	}
	// Other datasets are unaffected (the key scopes the fault).
	if _, err := j.Accept(context.Background(), JournalRecord{Kind: "dataset", Dataset: "other"}); err != nil {
		t.Fatalf("unfaulted accept: %v", err)
	}
}

func TestJournalTerminalFaultKeepsPendingAndSpool(t *testing.T) {
	reg := faults.New()
	reg.Enable(faults.Injection{
		Site: FaultJournal,
		Keys: []string{"terminal:lib"},
		Err:  errors.New("io error"),
	})
	dir := t.TempDir()
	jdir := filepath.Join(dir, "_journal")
	j := openTestJournal(t, jdir, JournalConfig{Faults: reg})
	spool := spoolFile(t, dir, "spool.xml")
	ctx := context.Background()

	id, err := j.Accept(ctx, JournalRecord{Kind: "dataset", Dataset: "lib", Spool: spool})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Terminal(ctx, id, OpDone, nil); err == nil {
		t.Fatal("Terminal with armed fault succeeded")
	}
	// The crash window: the entry stays pending and the spool stays on disk,
	// so a restart replays the job.
	if p := j.Pending(); len(p) != 1 || p[0].ID != id {
		t.Fatalf("pending after failed terminal = %+v", p)
	}
	if _, err := os.Stat(spool); err != nil {
		t.Fatalf("spool gone despite failed terminal: %v", err)
	}
	j.Close()

	j2 := openTestJournal(t, jdir, JournalConfig{})
	if p := j2.Pending(); len(p) != 1 || p[0].Spool != spool {
		t.Fatalf("restart does not see the job: %+v", p)
	}
}

func TestJournalMetrics(t *testing.T) {
	reg := metrics.New()
	lc := reg.Lifecycle()
	dir := t.TempDir()
	j := openTestJournal(t, filepath.Join(dir, "_journal"), JournalConfig{Metrics: lc})
	ctx := context.Background()

	id, err := j.Accept(ctx, JournalRecord{Kind: "dataset", Dataset: "lib"})
	if err != nil {
		t.Fatal(err)
	}
	if pending := reg.Snapshot().Lifecycle.JournalPending; lc.JournalAccepted.Load() != 1 || pending != 1 {
		t.Fatalf("after accept: accepted=%d pending=%d", lc.JournalAccepted.Load(), pending)
	}
	if err := j.Terminal(ctx, id, OpDone, nil); err != nil {
		t.Fatal(err)
	}
	if pending := reg.Snapshot().Lifecycle.JournalPending; lc.JournalCompleted.Load() != 1 || pending != 0 {
		t.Fatalf("after terminal: completed=%d pending=%d", lc.JournalCompleted.Load(), pending)
	}
}

func TestJournalClosedRefusesAccept(t *testing.T) {
	j := openTestJournal(t, filepath.Join(t.TempDir(), "_journal"), JournalConfig{})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := j.Accept(context.Background(), JournalRecord{Dataset: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Accept after Close: %v", err)
	}
}

func TestQueueDrainFinishesQueuedJobs(t *testing.T) {
	q := New(Config{Workers: 1, Capacity: 8})
	started := make(chan struct{})
	var ran [3]bool
	for i := 0; i < 3; i++ {
		i := i
		_, _, err := q.Enqueue(Request{
			Kind: "dataset", Dataset: string(rune('a' + i)),
			Run: func(ctx context.Context) (Result, error) {
				if i == 0 {
					close(started)
					time.Sleep(20 * time.Millisecond)
				}
				ran[i] = true
				return Result{}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := q.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !ran[0] || !ran[1] || !ran[2] {
		t.Fatalf("drain dropped queued jobs: ran=%v", ran)
	}
	// Enqueue after drain is refused; Close after Drain is a safe no-op.
	if _, _, err := q.Enqueue(Request{Kind: "dataset", Dataset: "z", Run: func(context.Context) (Result, error) { return Result{}, nil }}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after drain: %v", err)
	}
	q.Close()
}

func TestQueueDrainDeadlineCancelsRunning(t *testing.T) {
	q := New(Config{Workers: 1})
	started := make(chan struct{})
	sawCancel := make(chan error, 1)
	_, _, err := q.Enqueue(Request{
		Kind: "dataset", Dataset: "slow",
		Run: func(ctx context.Context) (Result, error) {
			close(started)
			<-ctx.Done()
			sawCancel <- ctx.Err()
			return Result{}, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); err == nil {
		t.Fatal("Drain under an expired deadline reported success")
	}
	// The expired drain cancelled the job context so the worker could exit.
	select {
	case err := <-sawCancel:
		if err == nil {
			t.Fatal("job saw nil ctx error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("running job never saw cancellation")
	}
	q.Close()
}
