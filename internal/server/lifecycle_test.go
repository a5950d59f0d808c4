package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/faults"
	"lotusx/internal/ingest"
	"lotusx/internal/metrics"
)

// TestDrainGateRefusesNewWork: BeginDrain flips /readyz and the drain gate
// refuses new non-exempt requests with 503 + Retry-After while exempt
// observability routes keep answering.
func TestDrainGateRefusesNewWork(t *testing.T) {
	reg := metrics.New()
	e, err := core.FromReader("bib", strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewConfig(e, Config{Metrics: reg})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if code := getJSON(t, ts.URL+"/api/v1/stats", &struct{}{}); code != http.StatusOK {
		t.Fatalf("stats before drain: %d", code)
	}
	if err := srv.Ready(); err != nil {
		t.Fatalf("ready before drain: %v", err)
	}

	srv.BeginDrain()
	srv.BeginDrain() // idempotent

	if err := srv.Ready(); err == nil {
		t.Fatal("Ready() nil while draining")
	}
	res, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining stats status = %d, want 503", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("Retry-After missing on drain refusal")
	}

	// Exempt routes answer through the gate: the balancer reads metrics and
	// clients poll jobs while the instance drains.
	var snap metrics.Snapshot
	if code := getJSON(t, ts.URL+"/api/v1/metrics", &snap); code != http.StatusOK {
		t.Fatalf("metrics while draining: %d", code)
	}
	if !snap.Lifecycle.Draining {
		t.Error("snapshot does not report draining")
	}
	if snap.Lifecycle.DrainRejected < 1 {
		t.Errorf("drainRejected = %d, want >= 1", snap.Lifecycle.DrainRejected)
	}
	if snap.Endpoints["stats"].Shed < 1 {
		t.Errorf("stats shed = %d, want >= 1", snap.Endpoints["stats"].Shed)
	}

	// The Prometheus exposition carries the gauge.
	pres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer pres.Body.Close()
	b, err := io.ReadAll(pres.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "lotusx_lifecycle_draining 1") {
		t.Error("exposition missing lotusx_lifecycle_draining 1")
	}
}

// TestDrainCompletesQueuedIngest: Drain waits for an accepted async ingest
// to finish instead of dropping it.
func TestDrainCompletesQueuedIngest(t *testing.T) {
	dir := t.TempDir()
	srv := newAdminCatalogServer(t, Config{CorpusDir: filepath.Join(dir, "corpora")})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var jb jobBody
	if _, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2", tinyXML, &jb); code != http.StatusAccepted {
		t.Fatalf("async create: %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The job reached its terminal state and the journal settled.
	if n := srv.reg.Snapshot().Lifecycle.JournalPending; n != 0 {
		t.Fatalf("journal pending after drain = %d", n)
	}
	// The drain gate refuses new HTTP requests, so check in-process that the
	// accepted ingest actually landed before the drain returned.
	if _, err := srv.catalog.GetBackend("lib"); err != nil {
		t.Fatalf("dataset missing after drain: %v", err)
	}
}

// newAdminCatalogServer builds a *Server (not just its httptest wrapper)
// with admin on — lifecycle tests need the Server handle for Drain/Close.
func newAdminCatalogServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.EnableAdmin = true
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	e, err := core.FromReader("bib", strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCatalog()
	c.Add("bib", e)
	srv := NewCatalogConfig(c, cfg)
	t.Cleanup(srv.Close)
	return srv
}

// TestJournalCrashRestartReplays is the kill-and-restart proof: a fault at
// the terminal-record append simulates a crash between publishing an ingest
// and settling its journal entry; a second server over the same corpus
// directory replays the accept idempotently and settles it.
func TestJournalCrashRestartReplays(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpora")
	freg := faults.New()
	freg.Enable(faults.Injection{
		Site: ingest.FaultJournal,
		Keys: []string{"terminal:lib"},
		Err:  errors.New("injected crash before terminal record"),
	})

	srv1 := newAdminCatalogServer(t, Config{CorpusDir: corpusDir, Faults: freg})
	ts1 := httptest.NewServer(srv1)
	var jb jobBody
	if _, code := doFull(t, "POST", ts1.URL+"/api/v1/datasets/lib?shards=2", tinyXML, &jb); code != http.StatusAccepted {
		t.Fatalf("async create: %d", code)
	}
	if final := pollJob(t, ts1.URL, jb.Job.ID); final.Job.State != "done" {
		t.Fatalf("job state %q", final.Job.State)
	}
	// The terminal append failed: the accept is still pending and its spool
	// is still on disk — exactly the crash-window state.
	if n := srv1.reg.Snapshot().Lifecycle.JournalPending; n != 1 {
		t.Fatalf("pending after faulted terminal = %d, want 1", n)
	}
	spools, _ := filepath.Glob(filepath.Join(corpusDir, "ingest-spool-*.xml"))
	if len(spools) != 1 {
		t.Fatalf("retained spools = %d, want 1", len(spools))
	}
	ts1.Close()
	srv1.Close() // the "crash": no drain, the journal still holds the accept

	// Restart over the same directory, no faults: the journal replays the
	// accept (idempotently re-publishing the dataset) and settles it.
	reg2 := metrics.New()
	srv2 := newAdminCatalogServer(t, Config{CorpusDir: corpusDir, Metrics: reg2})
	ts2 := httptest.NewServer(srv2)
	t.Cleanup(ts2.Close)

	deadline := time.Now().Add(10 * time.Second)
	for reg2.Snapshot().Lifecycle.JournalPending != 0 {
		if time.Now().After(deadline) {
			t.Fatal("journal never settled after restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg2.Lifecycle().JournalReplayed.Load(); got != 1 {
		t.Fatalf("JournalReplayed = %d, want 1", got)
	}

	// The replayed dataset answers queries.
	var qr struct {
		Answers []struct{} `json:"answers"`
		Shards  int        `json:"shards"`
	}
	if code := postJSON(t, ts2.URL+"/api/v1/query?dataset=lib", `{"query":"//article/title","k":10}`, &qr); code != http.StatusOK {
		t.Fatalf("query after replay: %d", code)
	}
	if len(qr.Answers) != 3 {
		t.Fatalf("replayed dataset answered %d, want 3", len(qr.Answers))
	}
	// The settled journal freed the spool.
	spools, _ = filepath.Glob(filepath.Join(corpusDir, "ingest-spool-*.xml"))
	if len(spools) != 0 {
		t.Fatalf("spools after replay = %v, want none", spools)
	}

	// A third start finds nothing to do: replay converged.
	reg3 := metrics.New()
	srv3 := newAdminCatalogServer(t, Config{CorpusDir: corpusDir, Metrics: reg3})
	_ = srv3
	if got := reg3.Lifecycle().JournalReplayed.Load(); got != 0 {
		t.Fatalf("second restart replayed %d records, want 0", got)
	}
}

// TestJournalAcceptFaultFailsRequest: when the accept record cannot be made
// durable, the 202 promise is refused — the request answers 500 and leaves
// no spool behind.
func TestJournalAcceptFaultFailsRequest(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpora")
	// The corpus dir must exist for the journal to open at startup; an
	// accept-time open would fail the same way but exercise less.
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	freg := faults.New()
	freg.Enable(faults.Injection{
		Site: ingest.FaultJournal,
		Keys: []string{"accept:lib"},
		Err:  errors.New("injected disk failure"),
	})
	srv := newAdminCatalogServer(t, Config{CorpusDir: corpusDir, Faults: freg})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	if _, code := doFull(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2", tinyXML, nil); code != http.StatusInternalServerError {
		t.Fatalf("create with failed accept: %d, want 500", code)
	}
	spools, _ := filepath.Glob(filepath.Join(corpusDir, "ingest-spool-*.xml"))
	if len(spools) != 0 {
		t.Fatalf("failed accept leaked spools: %v", spools)
	}
	if n := srv.reg.Snapshot().Lifecycle.JournalPending; n != 0 {
		t.Fatalf("pending after refused accept = %d", n)
	}
}

// TestOrphanSpoolSweep: spool files no journal record references are swept
// at startup — bodies whose deletion a crash interrupted.
func TestOrphanSpoolSweep(t *testing.T) {
	dir := t.TempDir()
	corpusDir := filepath.Join(dir, "corpora")
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(corpusDir, "ingest-spool-orphan.xml")
	if err := os.WriteFile(orphan, []byte("<doc/>"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	newAdminCatalogServer(t, Config{CorpusDir: corpusDir, Metrics: reg})

	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("orphan spool survived startup")
	}
	if got := reg.Lifecycle().OrphansSwept.Load(); got != 1 {
		t.Fatalf("OrphansSwept = %d, want 1", got)
	}
}

// TestRateLimitOnServer: the per-client limiter is wired through Config and
// visible in the endpoint metrics; exempt routes bypass it.
func TestRateLimitOnServer(t *testing.T) {
	reg := metrics.New()
	e, err := core.FromReader("bib", strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewConfig(e, Config{Metrics: reg, RateQPS: 0.001, RateBurst: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	client := &http.Client{}
	get := func(path string) *http.Response {
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Lotusx-Client", "tester")
		res, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i := 0; i < 2; i++ {
		res := get("/api/v1/stats")
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: %d", i, res.StatusCode)
		}
	}
	res := get("/api/v1/stats")
	defer res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate status = %d, want 429", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("Retry-After missing on 429")
	}

	// Exempt observability answers, and the snapshot carries the admission
	// counters plus the 429 tallied into the endpoint's shed count.
	mres := get("/api/v1/metrics")
	defer mres.Body.Close()
	if mres.StatusCode != http.StatusOK {
		t.Fatalf("metrics while limited: %d", mres.StatusCode)
	}
	snap := reg.Snapshot()
	if snap.Admission == nil || snap.Admission.Limited < 1 {
		t.Fatalf("admission snapshot = %+v", snap.Admission)
	}
	if snap.Endpoints["stats"].Shed < 1 {
		t.Errorf("stats shed = %d, want >= 1", snap.Endpoints["stats"].Shed)
	}
}
