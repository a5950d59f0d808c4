package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/faults"
	"lotusx/internal/ingest"
	"lotusx/internal/metrics"
	"lotusx/internal/server"
)

const drainXML = `<dblp>
  <article><author>Ada</author><title>Alpha</title></article>
  <article><author>Bo</author><title>Beta</title></article>
  <article><author>Cy</author><title>Gamma</title></article>
</dblp>`

// startDraining runs serveListener on an ephemeral port with an injected
// signal channel — the seam every serving role's drain rides through.
func startDraining(t *testing.T, srv *server.Server, budget time.Duration) (base string, sig chan os.Signal, done chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig = make(chan os.Signal, 1)
	done = make(chan error, 1)
	go func() { done <- serveListener(ln, srv, budget, sig) }()
	return "http://" + ln.Addr().String(), sig, done
}

// waitExit asserts serveListener returned within the test's patience.
func waitExit(t *testing.T, done chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(15 * time.Second):
		t.Fatal("serveListener never returned after the signal")
		return nil
	}
}

// blockOnce returns a fault hook that blocks the first firing call until
// release is closed (closing entered on the way in) and lets every other
// call pass — the deterministic way to hold one request in flight.
func blockOnce(entered, release chan struct{}) func(context.Context, string) error {
	var once sync.Once
	return func(ctx context.Context, key string) error {
		mine := false
		once.Do(func() { mine = true })
		if mine {
			close(entered)
			select {
			case <-release:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
}

// TestDrainCompletesInFlightQuery is the standalone serve role: a query
// held mid-evaluation when SIGTERM lands still answers 200, and the process
// exits clean.
func TestDrainCompletesInFlightQuery(t *testing.T) {
	reg := faults.New()
	entered := make(chan struct{})
	release := make(chan struct{})
	reg.Enable(faults.Injection{Site: corpus.FaultShardSearch, Hook: blockOnce(entered, release)})

	doc, err := core.FromReader("lib", strings.NewReader(drainXML))
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.FromDocument("lib", doc.Document(), 2, corpus.Config{Faults: reg})
	if err != nil {
		t.Fatal(err)
	}
	catalog := core.NewCatalog()
	catalog.AddBackend("lib", c)
	srv := server.NewCatalogConfig(catalog, server.Config{Metrics: metrics.New()})
	base, sig, done := startDraining(t, srv, 10*time.Second)

	type result struct {
		code int
		body string
		err  error
	}
	res := make(chan result, 1)
	go func() {
		r, err := http.Post(base+"/api/v1/query?dataset=lib", "application/json",
			strings.NewReader(`{"query":"//article/title","k":10}`))
		if err != nil {
			res <- result{err: err}
			return
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		res <- result{code: r.StatusCode, body: string(b)}
	}()

	<-entered // the query is in flight, held inside shard evaluation
	sig <- syscall.SIGTERM
	// Give the drain a moment to start, then let the query finish: Shutdown
	// must wait for it rather than cutting the connection.
	time.Sleep(50 * time.Millisecond)
	close(release)

	got := <-res
	if got.err != nil {
		t.Fatalf("in-flight query dropped during drain: %v", got.err)
	}
	if got.code != http.StatusOK || !strings.Contains(got.body, "answers") {
		t.Fatalf("in-flight query: status %d body %q", got.code, got.body)
	}
	if err := waitExit(t, done); err != nil {
		t.Fatalf("drain exit: %v", err)
	}
}

// buildArgs builds a server from a command line through parse and build —
// the production start-up, minus the listener — and checks the role its
// flags derive.
func buildArgs(t *testing.T, role string, args ...string) *server.Server {
	t.Helper()
	c := mustParse(t, args...)
	if c.role != role {
		t.Fatalf("%v: role %s, want %s", args, c.role, role)
	}
	srv, err := c.build(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestDrainShardMode: the slim shard-server shape (single engine, no admin,
// the role -slice sets) exits clean on SIGINT with zero in-flight work.
func TestDrainShardMode(t *testing.T) {
	srv := buildArgs(t, roleShard, "-dataset", "dblp", "-seed", "7", "-slice", "0/2", "-quiet")
	base, sig, done := startDraining(t, srv, 5*time.Second)

	res, err := http.Get(base + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d", res.StatusCode)
	}
	sig <- os.Interrupt
	if err := waitExit(t, done); err != nil {
		t.Fatalf("drain exit: %v", err)
	}
}

// TestDrainRouterMode: the router shape — the role -shard-servers sets, a
// remote corpus over a shard server — finishes an in-flight fan-out query
// held at the RPC layer and exits clean.
func TestDrainRouterMode(t *testing.T) {
	shard := buildArgs(t, roleShard, "-dataset", "dblp", "-seed", "7", "-slice", "1/2", "-quiet")
	entered := make(chan struct{})
	release := make(chan struct{})
	// Hold the first query the shard server receives.
	hold := blockOnce(entered, release)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/v1/query" {
			if err := hold(r.Context(), ""); err != nil {
				return
			}
		}
		shard.ServeHTTP(w, r)
	}))
	defer backend.Close()

	srv := buildArgs(t, roleRouter, "-shard-servers", backend.URL, "-quiet")
	base, sig, done := startDraining(t, srv, 10*time.Second)

	res := make(chan error, 1)
	go func() {
		r, err := http.Post(base+"/api/v1/query?dataset=cluster", "application/json",
			strings.NewReader(`{"query":"//article/title","k":5}`))
		if err != nil {
			res <- err
			return
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(r.Body)
			res <- fmt.Errorf("status %d: %s", r.StatusCode, b)
			return
		}
		res <- nil
	}()

	<-entered
	sig <- syscall.SIGTERM
	time.Sleep(50 * time.Millisecond)
	close(release)

	if err := <-res; err != nil {
		t.Fatalf("in-flight routed query dropped during drain: %v", err)
	}
	if err := waitExit(t, done); err != nil {
		t.Fatalf("drain exit: %v", err)
	}
}

// TestDrainFinishesQueuedIngest: the admin shape — an accepted (202) async
// ingest still in the queue when SIGTERM lands runs to completion before the
// process exits, and its journal entry settles.
func TestDrainFinishesQueuedIngest(t *testing.T) {
	freg := faults.New()
	freg.Enable(faults.Injection{
		Site:    ingest.FaultJob,
		Keys:    []string{"lib"},
		Latency: 200 * time.Millisecond,
	})
	reg := metrics.New()
	corpusDir := filepath.Join(t.TempDir(), "corpora")
	srv := server.NewCatalogConfig(core.NewCatalog(), server.Config{
		Metrics:     reg,
		EnableAdmin: true,
		CorpusDir:   corpusDir,
		Faults:      freg,
	})
	base, sig, done := startDraining(t, srv, 10*time.Second)

	res, err := http.Post(base+"/api/v1/datasets/lib?shards=2", "application/xml", strings.NewReader(drainXML))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("async create: %d", res.StatusCode)
	}
	sig <- syscall.SIGTERM
	if err := waitExit(t, done); err != nil {
		t.Fatalf("drain exit: %v", err)
	}
	// The job ran inside the drain: the dataset persisted and the journal
	// settled, so a restart has nothing to replay.
	if _, err := os.Stat(filepath.Join(corpusDir, "lib", "MANIFEST.json")); err != nil {
		t.Fatalf("dataset not persisted through drain: %v", err)
	}
	if n := reg.Snapshot().Lifecycle.JournalPending; n != 0 {
		t.Fatalf("journal pending after drain = %d", n)
	}
}

// TestDrainBudgetExpiryReportsError: a drain that cannot finish its queued
// ingest inside -drain-timeout exits with the budget-expired error — and the
// journaled job replays on the next start (proved in the server tests).
func TestDrainBudgetExpiryReportsError(t *testing.T) {
	freg := faults.New()
	freg.Enable(faults.Injection{
		Site:    ingest.FaultJob,
		Keys:    []string{"lib"},
		Latency: 30 * time.Second,
	})
	reg := metrics.New()
	srv := server.NewCatalogConfig(core.NewCatalog(), server.Config{
		Metrics:     reg,
		EnableAdmin: true,
		CorpusDir:   filepath.Join(t.TempDir(), "corpora"),
		Faults:      freg,
	})
	base, sig, done := startDraining(t, srv, 100*time.Millisecond)

	res, err := http.Post(base+"/api/v1/datasets/lib?shards=2", "application/xml", strings.NewReader(drainXML))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("async create: %d", res.StatusCode)
	}
	sig <- syscall.SIGTERM
	err = waitExit(t, done)
	if err == nil {
		t.Fatal("drain that overran its budget exited clean")
	}
	if !strings.Contains(err.Error(), "drain budget expired") {
		t.Fatalf("budget-expiry error = %v", err)
	}
	// The interrupted job wrote no terminal record: it stays pending for the
	// next start's replay.
	if n := reg.Snapshot().Lifecycle.JournalPending; n != 1 {
		t.Fatalf("journal pending after expired drain = %d, want 1", n)
	}
}
