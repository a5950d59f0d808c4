package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"lotusx/internal/bench"
	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/faults"
	"lotusx/internal/httpmw"
	"lotusx/internal/obs"
	"lotusx/internal/remote"
	"lotusx/internal/server"
	"lotusx/internal/twig"
)

// slices splits the canonical test document (XMark, the same build the
// corpus degrade tests use) into parts — the records each shard server
// serves.
func slices(t *testing.T, parts int) []*doc.Document {
	t.Helper()
	d, err := dataset.Build(dataset.XMark, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	docs, err := corpus.SplitDocument(d, parts)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != parts {
		t.Fatalf("split into %d parts, want %d", len(docs), parts)
	}
	return docs
}

// cluster is a router-side remote corpus over in-process shard servers.
type cluster struct {
	*remote.Cluster
	faults *faults.Registry
	groups [][]*httptest.Server
}

// newCluster assembles the router's remote corpus with remote.NewCluster
// over server groups (group = the replica set of one logical shard).
// Breakers default off so policy tests see raw failures; hedging defaults
// off for determinism.
func newCluster(t *testing.T, groups [][]*httptest.Server, hedge time.Duration, tuning corpus.Tuning) *cluster {
	t.Helper()
	if tuning.BreakerThreshold == 0 {
		tuning.BreakerThreshold = -1
	}
	urls := make([][]string, len(groups))
	for i, g := range groups {
		for _, ts := range g {
			urls[i] = append(urls[i], ts.URL)
		}
	}
	reg := faults.New()
	c, err := remote.NewCluster(remote.ClusterConfig{
		Name:       "cluster",
		Groups:     urls,
		HedgeDelay: hedge,
		Tuning:     tuning,
		Faults:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &cluster{Cluster: c, faults: reg, groups: groups}
}

// replica is the fault key of replica j of shard i: its URL's host.
func (c *cluster) replica(i, j int) string {
	return strings.TrimPrefix(c.groups[i][j].URL, "http://")
}

// shardServer serves one document slice as a single-engine shard server.
func shardServer(t *testing.T, d *doc.Document) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(server.New(core.FromDocument(d)))
	t.Cleanup(ts.Close)
	return ts
}

func parse(t *testing.T, qs string) *twig.Query {
	t.Helper()
	q, err := twig.Parse(qs)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// servePage answers one query request on h and returns the response body
// with its timing zeroed: the bytes a client would see, minus the clock.
func servePage(t *testing.T, h http.Handler, body string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body)
	}
	return elapsedRE.ReplaceAllString(rec.Body.String(), `"elapsedMs":0`)
}

var elapsedRE = regexp.MustCompile(`"elapsedMs":[-+.0-9e]+`)

// marshal renders v as JSON for a byte comparison.
func marshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRouterMatchesLocalCorpus is the core contract test: for every
// workload template over its own dataset, a router over 2 shard servers
// serves the same pages — at offset 0 and at offset K — as a local corpus
// over the same 2-way split, byte for byte once the shard names are mapped
// ("cluster-00" remote, "cluster/000" local), and the same tag and value
// completions and explains at the template's output node.
func TestRouterMatchesLocalCorpus(t *testing.T) {
	t.Parallel()
	const k = 10
	ctx := context.Background()
	for _, kind := range dataset.Kinds {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			d, err := dataset.Build(kind, 1, 42)
			if err != nil {
				t.Fatal(err)
			}
			docs, err := corpus.SplitDocument(d, 2)
			if err != nil {
				t.Fatal(err)
			}
			cl := newCluster(t, [][]*httptest.Server{
				{shardServer(t, docs[0])},
				{shardServer(t, docs[1])},
			}, -1, corpus.Tuning{})
			local, err := corpus.FromDocument("cluster", d, 2, corpus.Config{})
			if err != nil {
				t.Fatal(err)
			}
			serve := func(b core.Backend) http.Handler {
				catalog := core.NewCatalog()
				catalog.AddBackend("cluster", b)
				return server.NewCatalogConfig(catalog, server.Config{DisableResultCache: true, DisableCompletionCache: true})
			}
			router, want := serve(cl.Corpus), serve(local)
			shardNames := strings.NewReplacer(`"shard":"cluster-00"`, `"shard":"cluster/000"`, `"shard":"cluster-01"`, `"shard":"cluster/001"`)

			templates := 0
			for _, wq := range bench.Workload() {
				if wq.Kind != kind {
					continue
				}
				templates++
				for _, offset := range []int{0, k} {
					body := marshal(t, map[string]any{"query": wq.Text, "k": k, "offset": offset, "rewrite": true})
					got, exp := shardNames.Replace(servePage(t, router, body)), servePage(t, want, body)
					if got != exp {
						t.Errorf("%s offset %d: router page\n%s\nlocal page\n%s", wq.ID, offset, got, exp)
					}
					if offset == 0 && !strings.Contains(exp, `"node"`) {
						t.Errorf("%s: the local page has no answers; the comparison would be vacuous", wq.ID)
					}
				}

				q := parse(t, wq.Text)
				out := q.OutputNode().ID
				completions := func(b core.Backend) string {
					tags, err := b.CompleteTags(ctx, q, out, twig.Child, "", k)
					if err != nil {
						t.Fatalf("%s tags: %v", wq.ID, err)
					}
					values, err := b.CompleteValues(ctx, q, out, "", k)
					if err != nil {
						t.Fatalf("%s values: %v", wq.ID, err)
					}
					var occs []complete.Occurrence
					if len(tags) > 0 {
						if occs, err = b.ExplainTags(ctx, q, out, twig.Child, tags[0].Text, 3); err != nil {
							t.Fatalf("%s explain: %v", wq.ID, err)
						}
					}
					return marshal(t, map[string]any{"tags": tags, "values": values, "explain": occs})
				}
				if got, exp := completions(cl.Corpus), completions(local); got != exp {
					t.Errorf("%s completions at the output node:\nrouter %s\nlocal  %s", wq.ID, got, exp)
				}
			}
			if templates == 0 {
				t.Fatalf("no workload template over %s", kind)
			}
		})
	}
}

// TestDegradedPartialResults: a dead shard server degrades exactly like a
// dead local shard — partial:true, the shard named, survivors answering.
func TestDegradedPartialResults(t *testing.T) {
	t.Parallel()
	docs := slices(t, 2)
	cl := newCluster(t, [][]*httptest.Server{
		{shardServer(t, docs[0])},
		{shardServer(t, docs[1])},
	}, -1, corpus.Tuning{})

	// Kill shard 1's only replica for both the attempt and the transparent
	// retry.
	cl.faults.Enable(faults.Injection{
		Site: remote.FaultRPC,
		Keys: []string{cl.replica(1, 0)},
		Err:  errors.New("injected connection failure"),
	})
	res, err := cl.Corpus.SearchHits(context.Background(), parse(t, "//name"), core.SearchOptions{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || len(res.FailedShards) != 1 || res.FailedShards[0] != "cluster-01" {
		t.Fatalf("got partial=%v failed=%v, want partial over cluster-01", res.Partial, res.FailedShards)
	}
	if len(res.Hits) == 0 {
		t.Fatal("no hits from the surviving shard")
	}
	for _, h := range res.Hits {
		if h.Shard != "cluster-00" {
			t.Fatalf("hit from %s, want only cluster-00 survivors", h.Shard)
		}
	}
	if got := cl.Metrics.RPCErrors.Load(); got != 2 {
		t.Fatalf("RPCErrors = %d, want 2 (attempt + retry)", got)
	}
}

// TestFailoverToReplica: with R=2, a failing primary fails over to its
// replica inside the shard — the fan-out never notices.
func TestFailoverToReplica(t *testing.T) {
	t.Parallel()
	docs := slices(t, 1)
	cl := newCluster(t, [][]*httptest.Server{{shardServer(t, docs[0]), shardServer(t, docs[0])}}, -1, corpus.Tuning{})

	cl.faults.Enable(faults.Injection{
		Site: remote.FaultRPC,
		Keys: []string{cl.replica(0, 0)},
		Err:  errors.New("injected connection failure"),
	})
	res, err := cl.Corpus.SearchHits(context.Background(), parse(t, "//item/name"), core.SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.Hits) == 0 {
		t.Fatalf("failover answer: partial=%v hits=%d, want full answer", res.Partial, len(res.Hits))
	}
	if got := cl.Metrics.Failovers.Load(); got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}
	if got := cl.Metrics.RPCErrors.Load(); got != 1 {
		t.Fatalf("RPCErrors = %d, want 1", got)
	}
}

// TestShortReadFailsOver: a response body truncated mid-payload (torn
// connection) is a replica failure like any other — decode fails, the
// replica set fails over.
func TestShortReadFailsOver(t *testing.T) {
	t.Parallel()
	docs := slices(t, 1)
	cl := newCluster(t, [][]*httptest.Server{{shardServer(t, docs[0]), shardServer(t, docs[0])}}, -1, corpus.Tuning{})

	cl.faults.Enable(faults.Injection{
		Site:      remote.FaultBody,
		Keys:      []string{cl.replica(0, 0)},
		ShortRead: 16,
	})
	res, err := cl.Corpus.SearchHits(context.Background(), parse(t, "//item/name"), core.SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.Hits) == 0 {
		t.Fatalf("short-read failover: partial=%v hits=%d, want full answer", res.Partial, len(res.Hits))
	}
	if got := cl.Metrics.Failovers.Load(); got != 1 {
		t.Fatalf("Failovers = %d, want 1", got)
	}
}

// TestHedgeCancelsLoser: a slow primary is hedged after the fixed delay,
// the replica wins, and the loser's in-flight request is cancelled.
func TestHedgeCancelsLoser(t *testing.T) {
	t.Parallel()
	docs := slices(t, 1)
	cl := newCluster(t, [][]*httptest.Server{{shardServer(t, docs[0]), shardServer(t, docs[0])}}, 5*time.Millisecond, corpus.Tuning{})

	cancelled := make(chan struct{}, 1)
	cl.faults.Enable(faults.Injection{
		Site: remote.FaultRPC,
		Keys: []string{cl.replica(0, 0)},
		Hook: func(ctx context.Context, key string) error {
			<-ctx.Done() // hold the primary until the race is decided
			cancelled <- struct{}{}
			return ctx.Err()
		},
	})
	res, err := cl.Corpus.SearchHits(context.Background(), parse(t, "//item/name"), core.SearchOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || len(res.Hits) == 0 {
		t.Fatalf("hedged answer: partial=%v hits=%d, want full answer", res.Partial, len(res.Hits))
	}
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("losing replica was never cancelled")
	}
	if got := cl.Metrics.HedgesFired.Load(); got != 1 {
		t.Fatalf("HedgesFired = %d, want 1", got)
	}
	if got := cl.Metrics.HedgeWins.Load(); got != 1 {
		t.Fatalf("HedgeWins = %d, want 1 (the backup answered first)", got)
	}
}

// TestBreakerTripAndProbe: remote replica failures advance the shard's
// circuit breaker; while open the shard is skipped without touching the
// network, and a half-open probe heals it after the cooldown.
func TestBreakerTripAndProbe(t *testing.T) {
	t.Parallel()
	docs := slices(t, 1)
	cl := newCluster(t, [][]*httptest.Server{{shardServer(t, docs[0])}}, -1, corpus.Tuning{
		BreakerThreshold: 2,
		BreakerCooldown:  100 * time.Millisecond,
	})
	cl.faults.Enable(faults.Injection{
		Site: remote.FaultRPC,
		Err:  errors.New("injected outage"),
	})

	ctx := context.Background()
	q := "//item/name"
	opts := core.SearchOptions{K: 5}
	for i := 0; i < 2; i++ {
		if _, err := cl.Corpus.SearchHits(ctx, parse(t, q), opts); err == nil {
			t.Fatalf("search %d should fail during the outage", i)
		}
	}
	firedBefore := cl.faults.Fired(remote.FaultRPC)
	if firedBefore != 4 {
		t.Fatalf("fault fired %d times, want 4 (2 searches x attempt+retry)", firedBefore)
	}

	// Breaker open: the next search fails as quarantined without an RPC.
	_, err := cl.Corpus.SearchHits(ctx, parse(t, q), opts)
	if !errors.Is(err, corpus.ErrShardQuarantined) {
		t.Fatalf("open-breaker search error = %v, want ErrShardQuarantined", err)
	}
	if fired := cl.faults.Fired(remote.FaultRPC); fired != firedBefore {
		t.Fatalf("quarantined search still hit the network (fired %d -> %d)", firedBefore, fired)
	}

	// After the cooldown a half-open probe goes through and heals the shard.
	cl.faults.Reset()
	time.Sleep(150 * time.Millisecond)
	res, err := cl.Corpus.SearchHits(ctx, parse(t, q), opts)
	if err != nil {
		t.Fatalf("post-cooldown probe failed: %v", err)
	}
	if res.Partial || len(res.Hits) == 0 {
		t.Fatalf("healed answer: partial=%v hits=%d", res.Partial, len(res.Hits))
	}
}

// TestEnvelopeDecode: every v1 error code round-trips the wire into a
// typed *remote.Error, and undecodable bodies still yield one with the
// code inferred from the status.
func TestEnvelopeDecode(t *testing.T) {
	t.Parallel()
	cases := []struct {
		status int
		code   string
	}{
		{http.StatusBadRequest, httpmw.CodeBadQuery},
		{http.StatusNotFound, httpmw.CodeNotFound},
		{http.StatusMethodNotAllowed, httpmw.CodeMethodNotAllowed},
		{http.StatusRequestEntityTooLarge, httpmw.CodeTooLarge},
		{http.StatusGatewayTimeout, httpmw.CodeTimeout},
		{http.StatusTooManyRequests, httpmw.CodeOverloaded},
		{http.StatusInternalServerError, httpmw.CodeInternal},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.code, func(t *testing.T) {
			t.Parallel()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				httpmw.WriteError(w, tc.status, tc.code, "injected "+tc.code)
			}))
			defer ts.Close()
			cl, err := remote.NewClient(remote.ClientConfig{BaseURL: ts.URL})
			if err != nil {
				t.Fatal(err)
			}
			_, err = cl.Search(context.Background(), remote.SearchRequest{Query: "//a", K: 1}, remote.TraceOff)
			var re *remote.Error
			if !errors.As(err, &re) {
				t.Fatalf("error %v (%T) is not a *remote.Error", err, err)
			}
			if re.Status != tc.status || re.Code != tc.code {
				t.Fatalf("decoded status=%d code=%q, want %d %q", re.Status, re.Code, tc.status, tc.code)
			}
			if !strings.Contains(re.Message, tc.code) {
				t.Fatalf("message %q lost the envelope text", re.Message)
			}
		})
	}

	t.Run("undecodable-body", func(t *testing.T) {
		t.Parallel()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprint(w, "<html>bad gateway</html>")
		}))
		defer ts.Close()
		cl, err := remote.NewClient(remote.ClientConfig{BaseURL: ts.URL})
		if err != nil {
			t.Fatal(err)
		}
		_, err = cl.Search(context.Background(), remote.SearchRequest{Query: "//a", K: 1}, remote.TraceOff)
		var re *remote.Error
		if !errors.As(err, &re) {
			t.Fatalf("error %v is not a *remote.Error", err)
		}
		if re.Status != http.StatusBadGateway || re.Code != httpmw.CodeUpstream {
			t.Fatalf("got status=%d code=%q, want 502 inferred as upstream_failed", re.Status, re.Code)
		}
	})

	t.Run("retry-after", func(t *testing.T) {
		t.Parallel()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "7")
			httpmw.WriteError(w, http.StatusServiceUnavailable, httpmw.CodeOverloaded, "quarantined")
		}))
		defer ts.Close()
		cl, err := remote.NewClient(remote.ClientConfig{BaseURL: ts.URL})
		if err != nil {
			t.Fatal(err)
		}
		_, err = cl.Search(context.Background(), remote.SearchRequest{Query: "//a", K: 1}, remote.TraceOff)
		var re *remote.Error
		if !errors.As(err, &re) {
			t.Fatalf("error %v is not a *remote.Error", err)
		}
		// The hint is not decoded: the router's own Retry-After comes from
		// its breaker cooldown.
		if re.Status != http.StatusServiceUnavailable || re.Code != httpmw.CodeOverloaded || re.Message != "quarantined" {
			t.Fatalf("got %+v, want 503 overloaded \"quarantined\"", re)
		}
	})
}

// TestEndlessBodyFailsDecode: a replica that answers 200 and never stops
// streaming fails the call with a decode error naming the replica once the
// body passes the wire cap, instead of growing the router's heap forever.
func TestEndlessBodyFailsDecode(t *testing.T) {
	t.Parallel()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"answers":[{"snippet":"`)
		chunk := bytes.Repeat([]byte("x"), 64<<10)
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	cl, err := remote.NewClient(remote.ClientConfig{BaseURL: ts.URL, Name: "endless"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Search(context.Background(), remote.SearchRequest{Query: "//a", K: 1}, remote.TraceOff)
	if err == nil || !strings.Contains(err.Error(), "remote endless: decode /api/v1/query: body exceeds") {
		t.Fatalf("endless body: err = %v, want a decode error naming the replica and the cap", err)
	}
}

// routerServer assembles the full HTTP router: shard servers -> remote
// corpus -> a catalog server with the cluster route mounted.
func routerServer(t *testing.T, cl *cluster, cfg server.Config) *httptest.Server {
	t.Helper()
	catalog := core.NewCatalog()
	catalog.AddBackend("cluster", cl.Corpus)
	cfg.ClusterStatus = cl.Status
	ts := httptest.NewServer(server.NewCatalogConfig(catalog, cfg))
	t.Cleanup(ts.Close)
	return ts
}

// TestRouterEndToEnd drives the whole chain over HTTP: request IDs forward
// to the shard hop, the shard's trace grafts into the router's trace, and
// GET /api/v1/cluster reports the topology.
func TestRouterEndToEnd(t *testing.T) {
	t.Parallel()
	docs := slices(t, 2)

	var mu sync.Mutex
	seenIDs := map[string]bool{}
	shardWithCapture := func(d *doc.Document) *httptest.Server {
		inner := server.New(core.FromDocument(d))
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seenIDs[r.Header.Get("X-Request-Id")] = true
			mu.Unlock()
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts
	}
	cl := newCluster(t, [][]*httptest.Server{
		{shardWithCapture(docs[0])},
		{shardWithCapture(docs[1])},
	}, -1, corpus.Tuning{})
	rt := routerServer(t, cl, server.Config{})

	body, _ := json.Marshal(map[string]any{"query": "//item/name", "k": 3})
	req, _ := http.NewRequest(http.MethodPost, rt.URL+"/api/v1/query?debug=trace", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "e2e-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	var qr struct {
		Answers []json.RawMessage `json:"answers"`
		Shards  int               `json:"shards"`
		Trace   *obs.Node         `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Answers) == 0 || qr.Shards != 2 {
		t.Fatalf("answers=%d shards=%d, want answers over 2 shards", len(qr.Answers), qr.Shards)
	}

	mu.Lock()
	forwarded := seenIDs["e2e-req-1"]
	mu.Unlock()
	if !forwarded {
		t.Fatalf("shard servers never saw the router's request ID; saw %v", seenIDs)
	}

	// The shard server's trace must appear grafted under the router's rpc
	// spans: rpc -> query -> parse/join/rank.
	if qr.Trace == nil {
		t.Fatal("no trace in response")
	}
	var names []string
	var walk func(n *obs.Node, depth int)
	walk = func(n *obs.Node, depth int) {
		names = append(names, n.Name)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(qr.Trace, 0)
	joined := strings.Join(names, " ")
	if !strings.Contains(joined, "rpc") || strings.Count(joined, "query") < 2 {
		t.Fatalf("trace %v lacks grafted remote spans (want rpc + nested remote query)", names)
	}

	// Completion over the full chain.
	cresp, err := http.Get(rt.URL + "/api/v1/complete?kind=tag&path=//item&axis=child&prefix=na&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var comp struct {
		Candidates []complete.Candidate `json:"candidates"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&comp); err != nil {
		t.Fatal(err)
	}
	if len(comp.Candidates) == 0 || comp.Candidates[0].Text != "name" {
		t.Fatalf("completion candidates = %+v, want name first", comp.Candidates)
	}

	// Topology endpoint.
	sresp, err := http.Get(rt.URL + "/api/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st struct {
		Dataset string               `json:"dataset"`
		Shards  []remote.ShardStatus `json:"shards"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Dataset != "cluster" || len(st.Shards) != 2 || st.Shards[0].Name != "cluster-00" {
		t.Fatalf("cluster status = %+v", st)
	}
}

// TestRouterRetryAfterOnQuarantine: once the only shard's breaker opens,
// the router answers 503 with a Retry-After derived from the breaker
// cooldown — instead of burning RPCs on a shard it knows is down.
func TestRouterRetryAfterOnQuarantine(t *testing.T) {
	t.Parallel()
	docs := slices(t, 1)
	cl := newCluster(t, [][]*httptest.Server{{shardServer(t, docs[0])}}, -1, corpus.Tuning{
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Second,
	})
	cl.faults.Enable(faults.Injection{Site: remote.FaultRPC, Err: errors.New("injected outage")})
	rt := routerServer(t, cl, server.Config{})

	query := func() *http.Response {
		body, _ := json.Marshal(map[string]any{"query": "//item", "k": 3})
		resp, err := http.Post(rt.URL+"/api/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	r1 := query()
	r1.Body.Close()
	if r1.StatusCode != http.StatusBadGateway {
		t.Fatalf("outage search status = %d, want 502 (all shards failed)", r1.StatusCode)
	}

	r2 := query()
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined search status = %d, want 503", r2.StatusCode)
	}
	if ra := r2.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want the breaker cooldown remaining", ra)
	}
	var env httpmw.ErrorBody
	if err := json.NewDecoder(r2.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Error.Code != httpmw.CodeOverloaded {
		t.Fatalf("quarantine code = %q, want %q", env.Error.Code, httpmw.CodeOverloaded)
	}

	// Completions consult the same breaker: with every shard quarantined
	// the router answers 503 + Retry-After instead of dialing a shard it
	// knows is down and surfacing a raw transport error as a 500.
	rpcs := cl.Metrics.RPCErrors.Load()
	c1, err := http.Get(rt.URL + "/api/v1/complete?kind=tag&path=//item&axis=child&prefix=na&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Body.Close()
	if c1.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("quarantined completion status = %d, want 503", c1.StatusCode)
	}
	if ra := c1.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("completion Retry-After = %q, want the breaker cooldown remaining", ra)
	}
	var cenv httpmw.ErrorBody
	if err := json.NewDecoder(c1.Body).Decode(&cenv); err != nil {
		t.Fatal(err)
	}
	if cenv.Error.Code != httpmw.CodeOverloaded {
		t.Fatalf("completion quarantine code = %q, want %q", cenv.Error.Code, httpmw.CodeOverloaded)
	}
	if got := cl.Metrics.RPCErrors.Load(); got != rpcs {
		t.Fatalf("quarantined completion dialed the shard: RPCErrors %d -> %d", rpcs, got)
	}
}

// TestCompletionDegradesAroundQuarantine: when only some shards are
// quarantined, completions and explains merge the survivors (counts
// undercount the missing shard) instead of failing — the completion-side
// analog of a partial search.
func TestCompletionDegradesAroundQuarantine(t *testing.T) {
	t.Parallel()
	docs := slices(t, 2)
	cl := newCluster(t, [][]*httptest.Server{
		{shardServer(t, docs[0])},
		{shardServer(t, docs[1])},
	}, -1, corpus.Tuning{
		BreakerThreshold: 1,
		BreakerCooldown:  30 * time.Second,
	})
	// Only shard cluster-01's replica fails; cluster-00 stays healthy.
	cl.faults.Enable(faults.Injection{Site: remote.FaultRPC, Keys: []string{cl.replica(1, 0)}, Err: errors.New("injected outage")})

	ctx := context.Background()
	res, err := cl.Corpus.SearchHits(ctx, parse(t, "//item"), core.SearchOptions{K: 3})
	if err != nil {
		t.Fatalf("degraded search: %v", err)
	}
	if !res.Partial {
		t.Fatal("search over a failing shard should be partial")
	}

	// The breaker for cluster-01 is now open; completion skips it and
	// merges the survivor without spending an RPC on the dead shard.
	rpcs := cl.Metrics.RPCErrors.Load()
	q := parse(t, "//item")
	anchor := q.OutputNode().ID
	cands, err := cl.Corpus.CompleteTags(ctx, q, anchor, twig.Child, "", 8)
	if err != nil {
		t.Fatalf("completion around quarantined shard: %v", err)
	}
	if len(cands) == 0 {
		t.Fatal("surviving shard should still propose candidates")
	}
	occs, err := cl.Corpus.ExplainTags(ctx, parse(t, "//item"), anchor, twig.Child, "name", 3)
	if err != nil {
		t.Fatalf("explain around quarantined shard: %v", err)
	}
	if len(occs) == 0 {
		t.Fatal("surviving shard should still report occurrences")
	}
	if got := cl.Metrics.RPCErrors.Load(); got != rpcs {
		t.Fatalf("completion dialed the quarantined shard: RPCErrors %d -> %d", rpcs, got)
	}
}

// TestDeadlineBoundsRemoteShard: a short request deadline caps the per-hop
// budget even when -shard-timeout is huge, so a hung shard server cannot
// hold a request past its deadline.
func TestDeadlineBoundsRemoteShard(t *testing.T) {
	t.Parallel()
	docs := slices(t, 1)
	cl := newCluster(t, [][]*httptest.Server{{shardServer(t, docs[0])}}, -1, corpus.Tuning{
		ShardTimeout: 10 * time.Second,
	})
	cl.faults.Enable(faults.Injection{Site: remote.FaultRPC, Latency: 5 * time.Second})

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := cl.Corpus.SearchHits(ctx, parse(t, "//item"), core.SearchOptions{K: 3})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("search against a hung shard should fail")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want deadline exceeded", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("request held for %v; the derived per-hop budget should have cut it near 150ms", elapsed)
	}
}

// TestRemoteCorpusIsReadOnly: the remote corpus rejects mutation — data
// lives on the shard servers.
func TestRemoteCorpusIsReadOnly(t *testing.T) {
	t.Parallel()
	docs := slices(t, 1)
	cl := newCluster(t, [][]*httptest.Server{{shardServer(t, docs[0])}}, -1, corpus.Tuning{})
	if !cl.Corpus.Remote() {
		t.Fatal("remote corpus does not report Remote()")
	}
	d, err := dataset.Build(dataset.DBLP, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Corpus.AddSplit("extra", d, 1); err == nil {
		t.Fatal("AddSplit on a remote corpus must fail")
	}
}

// TestShardInfo: the stats RPC aggregates into the corpus Info view.
func TestShardInfo(t *testing.T) {
	t.Parallel()
	docs := slices(t, 2)
	cl := newCluster(t, [][]*httptest.Server{
		{shardServer(t, docs[0])},
		{shardServer(t, docs[1])},
	}, -1, corpus.Tuning{})
	info := cl.Corpus.Info()
	if info.Kind != "remote-corpus" || info.Shards != 2 {
		t.Fatalf("info = %+v, want remote-corpus over 2 shards", info)
	}
	if info.Nodes == 0 {
		t.Fatalf("info = %+v, want summed node counts from the shard servers", info)
	}
}
