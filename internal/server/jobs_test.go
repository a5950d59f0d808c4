package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lotusx/internal/faults"
	"lotusx/internal/ingest"
	"lotusx/internal/metrics"
)

// jobBody mirrors the jobs-API JSON for decoding in tests.
type jobBody struct {
	Job struct {
		ID      string  `json:"id"`
		Kind    string  `json:"kind"`
		Dataset string  `json:"dataset"`
		State   string  `json:"state"`
		Error   string  `json:"error"`
		Bytes   int64   `json:"bytes"`
		Shards  int     `json:"shards"`
		Seq     uint64  `json:"seq"`
		Deduped int64   `json:"deduped"`
		QueueMS float64 `json:"queueMs"`
		RunMS   float64 `json:"runMs"`
	} `json:"job"`
}

// doFull is do plus response headers.
func doFull(t *testing.T, method, url, body string, out any) (*http.Response, int) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s: %v", method, url, err)
		}
	}
	return res, res.StatusCode
}

// pollJob polls GET /api/v1/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, base, id string) jobBody {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var jb jobBody
		if code := getJSON(t, base+"/api/v1/jobs/"+id, &jb); code != http.StatusOK {
			t.Fatalf("poll job %s: status %d", id, code)
		}
		if jb.Job.State == "done" || jb.Job.State == "failed" {
			return jb
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q", id, jb.Job.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsAsyncDatasetCreate is the headline flow: POST → 202 + Location →
// poll → done → the dataset answers queries.
func TestJobsAsyncDatasetCreate(t *testing.T) {
	ts, _ := adminServer(t, Config{})

	var jb jobBody
	res, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2", tinyXML, &jb)
	if code != http.StatusAccepted {
		t.Fatalf("async create: status %d, want 202", code)
	}
	if loc := res.Header.Get("Location"); loc != "/api/v1/jobs/"+jb.Job.ID {
		t.Fatalf("Location %q for job %s", loc, jb.Job.ID)
	}
	if jb.Job.Kind != "dataset" || jb.Job.Dataset != "lib" || jb.Job.Bytes != int64(len(tinyXML)) {
		t.Fatalf("202 job: %+v", jb.Job)
	}

	final := pollJob(t, ts.URL, jb.Job.ID)
	if final.Job.State != "done" || final.Job.Shards != 2 || final.Job.Seq == 0 {
		t.Fatalf("final job: %+v", final.Job)
	}
	if final.Job.RunMS <= 0 {
		t.Fatalf("terminal job has no run timing: %+v", final.Job)
	}

	var qr struct {
		Answers []struct{} `json:"answers"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/query?dataset=lib", `{"query":"//article/title","k":10}`, &qr); code != http.StatusOK {
		t.Fatalf("query after async create: status %d", code)
	}
	if len(qr.Answers) != 3 {
		t.Fatalf("async-created dataset answered %d, want 3", len(qr.Answers))
	}

	// The listing includes the terminal job.
	var list struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/jobs", &list); code != http.StatusOK {
		t.Fatal("jobs listing failed")
	}
	found := false
	for _, j := range list.Jobs {
		found = found || j.ID == jb.Job.ID
	}
	if !found {
		t.Fatalf("job %s missing from listing %+v", jb.Job.ID, list.Jobs)
	}
}

// TestJobsDedupIdenticalIngests: two identical submissions while the first
// is still live coalesce onto one job — same ID, bumped dedup counter.  A
// latency injection at the job site holds the first submission in "running"
// long enough to make the overlap deterministic.
func TestJobsDedupIdenticalIngests(t *testing.T) {
	freg := faults.New()
	freg.Enable(faults.Injection{
		Site:    ingest.FaultJob,
		Keys:    []string{"lib"},
		Latency: 300 * time.Millisecond,
	})
	reg := metrics.New()
	ts, _ := adminServer(t, Config{Metrics: reg, Faults: freg})

	var first, second jobBody
	if _, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2", tinyXML, &first); code != http.StatusAccepted {
		t.Fatalf("first: status %d", code)
	}
	if _, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2", tinyXML, &second); code != http.StatusAccepted {
		t.Fatalf("second: status %d", code)
	}
	if second.Job.ID != first.Job.ID {
		t.Fatalf("identical ingests got jobs %s and %s, want one", first.Job.ID, second.Job.ID)
	}
	if second.Job.Deduped != 1 {
		t.Fatalf("dedup counter %d, want 1", second.Job.Deduped)
	}
	// A different payload is NOT coalesced.
	var other jobBody
	if _, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2", tinyXML2, &other); code != http.StatusAccepted {
		t.Fatalf("different body: status %d", code)
	}
	if other.Job.ID == first.Job.ID {
		t.Fatal("different payload coalesced onto the same job")
	}
	pollJob(t, ts.URL, first.Job.ID)
	pollJob(t, ts.URL, other.Job.ID)
	if n := reg.Ingest().Deduped.Load(); n != 1 {
		t.Fatalf("lotusx_ingest_jobs_deduped_total = %d, want 1", n)
	}
}

// TestJobsFailedJob: a deterministic fault at the job site surfaces as
// state "failed" with the error message; the dataset is never registered.
func TestJobsFailedJob(t *testing.T) {
	freg := faults.New()
	freg.Enable(faults.Injection{
		Site: ingest.FaultJob,
		Keys: []string{"lib"},
		Err:  errors.New("disk on fire"),
	})
	ts, _ := adminServer(t, Config{Faults: freg})

	var jb jobBody
	if _, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib", tinyXML, &jb); code != http.StatusAccepted {
		t.Fatalf("create: status %d", code)
	}
	final := pollJob(t, ts.URL, jb.Job.ID)
	if final.Job.State != "failed" || !strings.Contains(final.Job.Error, "disk on fire") {
		t.Fatalf("job under injection: %+v", final.Job)
	}
	if code := getJSON(t, ts.URL+"/api/v1/stats?dataset=lib", &errEnvelope{}); code != http.StatusNotFound {
		t.Fatalf("failed ingest still registered the dataset (stats: %d)", code)
	}
}

// TestJobsUnknownJob404s with the standard envelope.
func TestJobsUnknownJob(t *testing.T) {
	ts, _ := adminServer(t, Config{})
	var env errEnvelope
	if code := getJSON(t, ts.URL+"/api/v1/jobs/j999999", &env); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
	if env.Error.Code != "not_found" || env.Error.RequestID == "" {
		t.Fatalf("unknown-job envelope: %+v", env.Error)
	}
}

// TestJobsDeltaShardAndCompaction: async shard adds land as delta shards;
// the compact endpoint folds them back into base shards.
func TestJobsDeltaShardAndCompaction(t *testing.T) {
	reg := metrics.New()
	ts, _ := adminServer(t, Config{Metrics: reg, CompactThreshold: -1})

	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2&sync=1", tinyXML, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	// Two async shard adds → two delta shards.
	for i, body := range []string{
		"<dblp><article><title>Delta</title></article></dblp>",
		"<dblp><article><title>Echo</title></article></dblp>",
	} {
		var jb jobBody
		url := ts.URL + "/api/v1/datasets/lib/shards/extra" + string(rune('a'+i))
		if _, code := doFull(t, "POST", url, body, &jb); code != http.StatusAccepted {
			t.Fatalf("shard add %d: status %d", i, code)
		}
		if jb.Job.Kind != "shard" {
			t.Fatalf("shard job kind %q", jb.Job.Kind)
		}
		if final := pollJob(t, ts.URL, jb.Job.ID); final.Job.State != "done" {
			t.Fatalf("shard job: %+v", final.Job)
		}
	}
	deltaCount := func() int64 {
		var snap struct {
			Corpora map[string]struct {
				Shards      int64 `json:"shards"`
				DeltaShards int64 `json:"deltaShards"`
			} `json:"corpora"`
		}
		if code := getJSON(t, ts.URL+"/api/v1/metrics", &snap); code != http.StatusOK {
			t.Fatal("metrics failed")
		}
		return snap.Corpora["lib"].DeltaShards
	}
	if n := deltaCount(); n != 2 {
		t.Fatalf("%d delta shards after async adds, want 2", n)
	}
	// Queries see base + delta shards merged.
	var qr struct {
		Answers []struct{} `json:"answers"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/query?dataset=lib", `{"query":"//article/title","k":10}`, &qr); code != http.StatusOK {
		t.Fatal("query failed")
	}
	if len(qr.Answers) != 5 {
		t.Fatalf("query over base+delta: %d answers, want 5", len(qr.Answers))
	}

	// Synchronous compaction folds the deltas away without losing answers.
	var jb jobBody
	if _, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib/compact?sync=1", "", &jb); code != http.StatusOK {
		t.Fatalf("compact sync: status %d", code)
	}
	if jb.Job.State != "done" || jb.Job.Kind != "compact" {
		t.Fatalf("compact job: %+v", jb.Job)
	}
	if n := deltaCount(); n != 0 {
		t.Fatalf("%d delta shards after compaction, want 0", n)
	}
	if code := postJSON(t, ts.URL+"/api/v1/query?dataset=lib", `{"query":"//article/title","k":10}`, &qr); code != http.StatusOK {
		t.Fatal("query after compaction failed")
	}
	if len(qr.Answers) != 5 {
		t.Fatalf("query after compaction: %d answers, want 5", len(qr.Answers))
	}
	if n := reg.Ingest().Compactions.Load(); n != 1 {
		t.Fatalf("lotusx_ingest_compactions_total = %d, want 1", n)
	}

	// Compacting again is a clean no-op job.
	if _, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib/compact?sync=1", "", &jb); code != http.StatusOK {
		t.Fatalf("noop compact: status %d", code)
	}
	if jb.Job.State != "done" {
		t.Fatalf("noop compact job: %+v", jb.Job)
	}
	if n := reg.Ingest().CompactionNoops.Load(); n != 1 {
		t.Fatalf("compaction noops = %d, want 1", n)
	}
	// Compacting a missing dataset 404s.
	if _, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/nope/compact", "", nil); code != http.StatusNotFound {
		t.Fatalf("compact missing dataset: status %d", code)
	}
}

// TestJobsAutoCompaction: crossing the delta threshold schedules a
// background compaction without an explicit compact call.
func TestJobsAutoCompaction(t *testing.T) {
	reg := metrics.New()
	ts, _ := adminServer(t, Config{Metrics: reg, CompactThreshold: 2})

	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?sync=1", tinyXML, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	for i := 0; i < 2; i++ {
		var jb jobBody
		url := ts.URL + "/api/v1/datasets/lib/shards/auto" + string(rune('a'+i))
		if _, code := doFull(t, "POST", url, "<dblp><article><title>X</title></article></dblp>", &jb); code != http.StatusAccepted {
			t.Fatalf("shard add %d: status %d", i, code)
		}
		pollJob(t, ts.URL, jb.Job.ID)
	}
	// The second delta crossed the threshold; wait for the compaction job.
	deadline := time.Now().Add(10 * time.Second)
	for reg.Ingest().Compactions.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-compaction never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var qr struct {
		Answers []struct{} `json:"answers"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/query?dataset=lib", `{"query":"//article/title","k":10}`, &qr); code != http.StatusOK {
		t.Fatal("query failed")
	}
	if len(qr.Answers) != 5 {
		t.Fatalf("after auto-compaction: %d answers, want 5", len(qr.Answers))
	}
}

// TestSyncWriteIsAJob: ?sync=1 submits the same job an async write does and
// waits for it — the shard add lands as a delta shard, both writes are
// listed as done jobs, and both count in the ingest metrics.
func TestSyncWriteIsAJob(t *testing.T) {
	reg := metrics.New()
	ts, _ := adminServer(t, Config{Metrics: reg, CompactThreshold: -1})

	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?sync=1", tinyXML, nil); code != http.StatusCreated {
		t.Fatalf("sync create: status %d", code)
	}
	var st statusEnvelope
	res, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib/shards/extra?sync=1", "<dblp><article><title>Delta</title></article></dblp>", &st)
	if code != http.StatusCreated {
		t.Fatalf("sync shard add: status %d", code)
	}
	if loc := res.Header.Get("Location"); loc != "/api/v1/datasets/lib/shards/extra" {
		t.Fatalf("sync shard add Location %q", loc)
	}
	if st.Status.DeltaShards != 1 || st.Status.Shards != 2 {
		t.Fatalf("sync shard add status %+v, want 2 shards, 1 of them a delta", st.Status)
	}

	var list struct {
		Jobs []struct {
			Kind  string `json:"kind"`
			State string `json:"state"`
		} `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("jobs listing: status %d", code)
	}
	done := map[string]int{}
	for _, j := range list.Jobs {
		if j.State == "done" {
			done[j.Kind]++
		}
	}
	if done["dataset"] != 1 || done["shard"] != 1 || len(list.Jobs) != 2 {
		t.Fatalf("jobs after two sync writes: %+v, want one done dataset job and one done shard job", list.Jobs)
	}

	var snap metrics.Snapshot
	if code := getJSON(t, ts.URL+"/api/v1/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	if snap.Ingest == nil || snap.Ingest.Enqueued != 2 {
		t.Fatalf("ingest metrics %+v, want enqueued == 2", snap.Ingest)
	}
}

// TestSyncWriteWaitsInTheQueue: a ?sync=1 write is bounded like an async
// one.  A fault hook holds the single worker; with the one queue slot taken
// a further sync write is refused 503, and a sync write stuck behind the
// held worker answers 504 at its deadline while its job still runs once the
// worker is free.
func TestSyncWriteWaitsInTheQueue(t *testing.T) {
	// holdWorker arms a hook that parks every job until the returned
	// release is called; held waits for a job to arrive at the hook.
	holdWorker := func(t *testing.T, freg *faults.Registry) (held, release func()) {
		entered, gate := make(chan struct{}, 1), make(chan struct{})
		freg.Enable(faults.Injection{
			Site: ingest.FaultJob,
			Hook: func(ctx context.Context, _ string) error {
				select {
				case entered <- struct{}{}:
				default: // an arrival is already waiting to be seen
				}
				select {
				case <-gate:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			},
		})
		var once sync.Once
		held = func() {
			t.Helper()
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("no job reached the worker: the write did not run as a job")
			}
		}
		return held, func() { once.Do(func() { close(gate) }) }
	}
	shardURL := func(ts *httptest.Server, shard string) string {
		return ts.URL + "/api/v1/datasets/lib/shards/" + shard + "?sync=1"
	}
	shardXML := func(title string) string {
		return "<dblp><article><title>" + title + "</title></article></dblp>"
	}

	t.Run("full queue answers 503", func(t *testing.T) {
		freg := faults.New()
		reg := metrics.New()
		ts, _ := adminServer(t, Config{Metrics: reg, Faults: freg, IngestWorkers: 1, IngestQueue: 1, CompactThreshold: -1})
		if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?sync=1", tinyXML, nil); code != http.StatusCreated {
			t.Fatalf("sync create: status %d", code)
		}
		held, release := holdWorker(t, freg)
		defer release()

		codes := make(chan int, 2)
		for _, shard := range []string{"a", "b"} {
			go func() {
				req, _ := http.NewRequest("POST", shardURL(ts, shard), strings.NewReader(shardXML(shard)))
				res, err := http.DefaultClient.Do(req)
				if err != nil {
					codes <- 0
					return
				}
				res.Body.Close()
				codes <- res.StatusCode
			}()
			if shard == "a" {
				held() // a holds the worker
			}
		}
		// b takes the one queue slot.
		deadline := time.Now().Add(10 * time.Second)
		for reg.Ingest().Enqueued.Load() < 3 {
			if time.Now().After(deadline) {
				t.Fatal("second sync shard add never reached the queue")
			}
			time.Sleep(time.Millisecond)
		}

		var env errEnvelope
		res, code := doFull(t, "POST", shardURL(ts, "c"), shardXML("c"), &env)
		if code != http.StatusServiceUnavailable || env.Error.Code != "overloaded" || res.Header.Get("Retry-After") == "" {
			t.Fatalf("sync write into a full queue: status %d, code %q, Retry-After %q; want 503 overloaded with Retry-After",
				code, env.Error.Code, res.Header.Get("Retry-After"))
		}

		release()
		for range 2 {
			if code := <-codes; code != http.StatusCreated {
				t.Fatalf("held sync shard add: status %d, want 201", code)
			}
		}
	})

	t.Run("expired deadline answers 504", func(t *testing.T) {
		freg := faults.New()
		reg := metrics.New()
		ts, _ := adminServer(t, Config{Metrics: reg, Faults: freg, IngestWorkers: 1, QueryTimeout: 100 * time.Millisecond, CompactThreshold: -1})
		// The create goes async: only the write under test races the deadline.
		var jb jobBody
		if _, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib", tinyXML, &jb); code != http.StatusAccepted {
			t.Fatalf("async create: status %d", code)
		}
		pollJob(t, ts.URL, jb.Job.ID)
		held, release := holdWorker(t, freg)
		defer release()

		if _, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib/shards/a", shardXML("a"), &jb); code != http.StatusAccepted {
			t.Fatalf("async shard add: status %d", code)
		}
		held() // a holds the worker

		var env errEnvelope
		if _, code := doFull(t, "POST", shardURL(ts, "b"), shardXML("b"), &env); code != http.StatusGatewayTimeout || env.Error.Code != "timeout" {
			t.Fatalf("sync write behind a held worker: status %d, code %q; want 504 timeout", code, env.Error.Code)
		}

		release()
		deadline := time.Now().Add(10 * time.Second)
		for reg.Ingest().Done.Load() < 3 {
			if time.Now().After(deadline) {
				t.Fatalf("the timed-out sync write's job never finished: %d jobs done", reg.Ingest().Done.Load())
			}
			time.Sleep(time.Millisecond)
		}
		c, err := ts.Config.Handler.(*Server).corpusFor("lib")
		if err != nil {
			t.Fatal(err)
		}
		if n := c.DeltaShards(); n != 2 {
			t.Fatalf("after release: %d delta shards, want 2", n)
		}
	})
}
