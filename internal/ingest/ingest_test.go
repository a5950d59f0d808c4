package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotusx/internal/faults"
	"lotusx/internal/metrics"
)

func waitDone(t *testing.T, q *Queue, id string) Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	job, err := q.Wait(ctx, id)
	if err != nil {
		t.Fatalf("Wait(%s): %v", id, err)
	}
	return job
}

func TestQueueRunsJob(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	job, created, err := q.Enqueue(Request{
		Kind:    "dataset",
		Dataset: "lib",
		Bytes:   42,
		Run: func(ctx context.Context) (Result, error) {
			return Result{Shards: 3, Seq: 7}, nil
		},
	})
	if err != nil || !created {
		t.Fatalf("enqueue: created=%v err=%v", created, err)
	}
	if job.State != StateQueued && job.State != StateRunning {
		t.Fatalf("fresh job state %q", job.State)
	}
	final := waitDone(t, q, job.ID)
	if final.State != StateDone || final.Shards != 3 || final.Seq != 7 || final.Bytes != 42 {
		t.Fatalf("final job: %+v", final)
	}
	if final.StartedAt == nil || final.FinishedAt == nil {
		t.Fatalf("terminal job missing timings: %+v", final)
	}
	got, err := q.Get(job.ID)
	if err != nil || got.State != StateDone {
		t.Fatalf("Get after done: %+v err=%v", got, err)
	}
}

func TestQueueFailedJobKeepsError(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	job, _, err := q.Enqueue(Request{
		Kind: "dataset",
		Run: func(ctx context.Context) (Result, error) {
			return Result{}, errors.New("boom")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, q, job.ID)
	if final.State != StateFailed || final.Error != "boom" {
		t.Fatalf("failed job: %+v", final)
	}
}

// TestQueueDedup: identical keys submitted while the first job is live
// coalesce onto it; the extra request's cleanup still runs.
func TestQueueDedup(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	release := make(chan struct{})
	var runs, cleanups atomic.Int64
	mk := func() Request {
		return Request{
			Kind: "dataset",
			Key:  "dataset:lib:abc:1",
			Run: func(ctx context.Context) (Result, error) {
				runs.Add(1)
				<-release
				return Result{Shards: 1}, nil
			},
			Cleanup: func() { cleanups.Add(1) },
		}
	}
	first, created, err := q.Enqueue(mk())
	if err != nil || !created {
		t.Fatalf("first enqueue: created=%v err=%v", created, err)
	}
	second, created, err := q.Enqueue(mk())
	if err != nil {
		t.Fatal(err)
	}
	if created || second.ID != first.ID {
		t.Fatalf("identical enqueue not coalesced: created=%v id=%s want %s", created, second.ID, first.ID)
	}
	if second.Deduped != 1 {
		t.Fatalf("dedup count %d, want 1", second.Deduped)
	}
	if n := cleanups.Load(); n != 1 {
		t.Fatalf("coalesced request's cleanup ran %d times, want 1 (immediately)", n)
	}
	close(release)
	waitDone(t, q, first.ID)
	if runs.Load() != 1 {
		t.Fatalf("job ran %d times, want 1", runs.Load())
	}
	if cleanups.Load() != 2 {
		t.Fatalf("cleanups %d, want 2 (coalesced + winner)", cleanups.Load())
	}

	// A terminal job no longer absorbs submissions: same key runs again.
	third, created, err := q.Enqueue(mk())
	if err != nil || !created {
		t.Fatalf("post-terminal enqueue: created=%v err=%v", created, err)
	}
	if third.ID == first.ID {
		t.Fatal("terminal job absorbed a new submission")
	}
	waitDone(t, q, third.ID)
}

func TestQueueFullRejects(t *testing.T) {
	q := New(Config{Workers: 1, Capacity: 1})
	defer q.Close()
	block := make(chan struct{})
	defer close(block)
	// One running (holds the worker), one queued (fills intake).
	busy := Request{Kind: "x", Run: func(ctx context.Context) (Result, error) {
		<-block
		return Result{}, nil
	}}
	if _, _, err := q.Enqueue(busy); err != nil {
		t.Fatal(err)
	}
	// The worker may not have picked up the first job yet; fill until rejected.
	var cleaned atomic.Int64
	deadline := time.After(5 * time.Second)
	for {
		_, _, err := q.Enqueue(Request{
			Kind:    "x",
			Run:     busy.Run,
			Cleanup: func() { cleaned.Add(1) },
		})
		if errors.Is(err, ErrQueueFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-deadline:
			t.Fatal("queue never filled")
		default:
		}
	}
	if cleaned.Load() == 0 {
		t.Fatal("rejected request's cleanup did not run")
	}
}

func TestQueueListNewestFirst(t *testing.T) {
	q := New(Config{Workers: 1})
	defer q.Close()
	var ids []string
	for i := 0; i < 3; i++ {
		job, _, err := q.Enqueue(Request{
			Kind: "x",
			Run:  func(ctx context.Context) (Result, error) { return Result{}, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
		waitDone(t, q, job.ID)
	}
	list := q.List()
	if len(list) != 3 {
		t.Fatalf("list has %d jobs, want 3", len(list))
	}
	for i, job := range list {
		if want := ids[len(ids)-1-i]; job.ID != want {
			t.Fatalf("list[%d] = %s, want %s (newest first)", i, job.ID, want)
		}
	}
}

// TestQueueRetention: terminal jobs age out once the ring is full; live jobs
// never do.
func TestQueueRetention(t *testing.T) {
	q := New(Config{Workers: 1, Retain: 2})
	defer q.Close()
	var ids []string
	for i := 0; i < 4; i++ {
		job, _, err := q.Enqueue(Request{
			Kind: "x",
			Run:  func(ctx context.Context) (Result, error) { return Result{}, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, q, job.ID)
		ids = append(ids, job.ID)
	}
	if _, err := q.Get(ids[0]); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest terminal job still retained (err=%v)", err)
	}
	if _, err := q.Get(ids[3]); err != nil {
		t.Fatalf("newest terminal job evicted: %v", err)
	}
}

func TestQueueCloseRejectsAndDrains(t *testing.T) {
	q := New(Config{Workers: 2})
	started := make(chan struct{})
	var finished atomic.Bool
	job, _, err := q.Enqueue(Request{
		Kind: "x",
		Run: func(ctx context.Context) (Result, error) {
			close(started)
			time.Sleep(20 * time.Millisecond)
			finished.Store(true)
			return Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	q.Close() // blocks until the in-flight job drains
	if !finished.Load() {
		t.Fatal("Close returned before the running job finished")
	}
	if _, _, err := q.Enqueue(Request{
		Kind: "x",
		Run:  func(ctx context.Context) (Result, error) { return Result{}, nil },
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("enqueue after close: %v, want ErrClosed", err)
	}
	if got, err := q.Get(job.ID); err != nil || got.State != StateDone {
		t.Fatalf("job after close: %+v err=%v", got, err)
	}
}

// TestQueueFaultInjection: the ingest/job site fails jobs by dataset key
// without touching the Run body — the deterministic failure path the API
// tests lean on.
func TestQueueFaultInjection(t *testing.T) {
	reg := faults.New()
	reg.Enable(faults.Injection{Site: FaultJob, Keys: []string{"lib"}, Err: errors.New("injected")})
	q := New(Config{Workers: 1, Faults: reg})
	defer q.Close()
	ran := false
	job, _, err := q.Enqueue(Request{
		Kind:    "dataset",
		Dataset: "lib",
		Run: func(ctx context.Context) (Result, error) {
			ran = true
			return Result{}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, q, job.ID)
	if final.State != StateFailed || final.Error != "injected" {
		t.Fatalf("job under injection: %+v", final)
	}
	if ran {
		t.Fatal("Run executed despite the fault firing first")
	}
	// Other datasets are untouched.
	ok, _, err := q.Enqueue(Request{
		Kind:    "dataset",
		Dataset: "other",
		Run:     func(ctx context.Context) (Result, error) { return Result{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, q, ok.ID); final.State != StateDone {
		t.Fatalf("unkeyed dataset failed: %+v", final)
	}
}

// TestQueueMetrics: the lotusx_ingest_* family tracks the lifecycle.
func TestQueueMetrics(t *testing.T) {
	reg := metrics.New()
	im := reg.Ingest()
	q := New(Config{Workers: 1, Metrics: im})
	ok, _, err := q.Enqueue(Request{
		Kind: "x", Key: "k",
		Run: func(ctx context.Context) (Result, error) { return Result{}, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, q, ok.ID)
	if _, _, err := q.Enqueue(Request{
		Kind: "x",
		Run:  func(ctx context.Context) (Result, error) { return Result{}, errors.New("no") },
	}); err != nil {
		t.Fatal(err)
	}
	q.Close()
	if n := im.Enqueued.Load(); n != 2 {
		t.Fatalf("enqueued %d, want 2", n)
	}
	if im.Done.Load() != 1 || im.Failed.Load() != 1 {
		t.Fatalf("done=%d failed=%d, want 1/1", im.Done.Load(), im.Failed.Load())
	}
	if n := reg.Snapshot().Ingest.Run.Count; n != 2 {
		t.Fatalf("run histogram count %d, want 2", n)
	}
}

// TestQueueConcurrentEnqueue hammers dedup from many goroutines: exactly one
// job per key wins (run under -race).
func TestQueueConcurrentEnqueue(t *testing.T) {
	q := New(Config{Workers: 4, Capacity: 64})
	defer q.Close()
	release := make(chan struct{})
	var runs atomic.Int64
	var mu sync.Mutex
	idsByKey := map[string]map[string]bool{}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g%4)
			job, _, err := q.Enqueue(Request{
				Kind: "x", Key: key,
				Run: func(ctx context.Context) (Result, error) {
					runs.Add(1)
					<-release
					return Result{}, nil
				},
			})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if idsByKey[key] == nil {
				idsByKey[key] = map[string]bool{}
			}
			idsByKey[key][job.ID] = true
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	close(release)
	for key, ids := range idsByKey {
		if len(ids) != 1 {
			t.Errorf("key %s spread over %d jobs, want 1", key, len(ids))
		}
	}
	// Drain before Close so -race sees the full lifecycle.
	for _, job := range q.List() {
		waitDone(t, q, job.ID)
	}
	if runs.Load() != 4 {
		t.Fatalf("ran %d jobs, want 4 (one per key)", runs.Load())
	}
}
