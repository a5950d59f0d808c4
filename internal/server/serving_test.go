package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/metrics"
)

// deepNestXML renders <a> nested depth times; //a//a//a//a over it has a
// combinatorial cross product — the deterministic "slow query" the timeout
// and load-shed tests rely on.
func deepNestXML(depth int) string {
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("<a>")
	}
	b.WriteString("x")
	for i := 0; i < depth; i++ {
		b.WriteString("</a>")
	}
	return b.String()
}

const slowQueryBody = `{"query": "//a//a//a//a", "k": 5}`

func slowEngine(t *testing.T) *core.Engine {
	t.Helper()
	e, err := core.FromReader("nest", strings.NewReader(deepNestXML(300)))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestVersionedRoutesOnly: the API lives under /api/v1 and nowhere else —
// the un-versioned /api/... twins of earlier releases are not found.
func TestVersionedRoutesOnly(t *testing.T) {
	e, err := core.FromReader("bib", strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)

	res, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("v1: status %d", res.StatusCode)
	}
	if res.Header.Get("X-Request-Id") == "" {
		t.Error("v1: X-Request-Id missing")
	}

	for _, path := range []string{"/api/stats", "/api/datasets", "/api/guide", "/api/node/0",
		"/api/complete?kind=tag", "/api/explain?tag=author"} {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, res.StatusCode)
		}
	}
}

// TestErrorEnvelopeTable drives every handler failure path and asserts the
// uniform {"error": {"code", "message"}} envelope with the right status.
func TestErrorEnvelopeTable(t *testing.T) {
	ts := testServer(t)
	cases := []struct {
		name, method, path, body string
		wantStatus               int
		wantCode                 string
	}{
		{"bad body", "POST", "/api/v1/query", `not json`, 400, "bad_query"},
		{"bad query", "POST", "/api/v1/query", `{"query": "]bad["}`, 400, "bad_query"},
		{"negative k", "POST", "/api/v1/query", `{"query": "//a", "k": -1}`, 400, "bad_query"},
		{"huge k", "POST", "/api/v1/query", `{"query": "//a", "k": 100000}`, 400, "bad_query"},
		{"negative offset", "POST", "/api/v1/query", `{"query": "//a", "offset": -5}`, 400, "bad_query"},
		{"huge offset", "POST", "/api/v1/query", `{"query": "//a", "offset": 99999999}`, 400, "bad_query"},
		{"unknown algorithm", "POST", "/api/v1/query", `{"query": "//a", "algorithm": "quantum"}`, 400, "bad_query"},
		{"unknown dataset query", "POST", "/api/v1/query?dataset=nope", `{"query": "//a"}`, 404, "not_found"},
		{"unknown dataset stats", "GET", "/api/v1/stats?dataset=nope", "", 404, "not_found"},
		{"unknown node", "GET", "/api/v1/node/99999", "", 404, "not_found"},
		{"bad node id", "GET", "/api/v1/node/xyz", "", 404, "not_found"},
		{"bad complete k", "GET", "/api/v1/complete?k=0", "", 400, "bad_query"},
		{"bad complete kind", "GET", "/api/v1/complete?kind=bogus", "", 400, "bad_query"},
		{"bad complete path", "GET", "/api/v1/complete?path=%5B%5B", "", 400, "bad_query"},
		{"value without path", "GET", "/api/v1/complete?kind=value", "", 400, "bad_query"},
		{"explain missing tag", "GET", "/api/v1/explain", "", 400, "bad_query"},
		{"explain bad max", "GET", "/api/v1/explain?tag=a&max=9999", "", 400, "bad_query"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var res *http.Response
			var err error
			if tc.method == "POST" {
				res, err = http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			} else {
				res, err = http.Get(ts.URL + tc.path)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer res.Body.Close()
			if res.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d", res.StatusCode, tc.wantStatus)
			}
			var e errEnvelope
			if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
				t.Fatalf("not an envelope: %v", err)
			}
			if e.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", e.Error.Code, tc.wantCode)
			}
			if e.Error.Message == "" {
				t.Error("empty message")
			}
		})
	}
}

func TestQueryAcceptsEveryImplementedAlgorithm(t *testing.T) {
	ts := testServer(t)
	for _, alg := range []string{"nestedloop", "structural", "pathstack", "twigstack", "twigstack-la", "tjfast", "auto"} {
		var resp struct {
			Answers   []any  `json:"answers"`
			Algorithm string `json:"algorithm"`
		}
		body := fmt.Sprintf(`{"query": "//article/author", "algorithm": %q}`, alg)
		if code := postJSON(t, ts.URL+"/api/v1/query", body, &resp); code != 200 {
			t.Errorf("%s: status %d", alg, code)
			continue
		}
		if len(resp.Answers) == 0 || resp.Algorithm == "" || resp.Algorithm == "auto" {
			t.Errorf("%s: answers = %d, algorithm = %q", alg, len(resp.Answers), resp.Algorithm)
		}
	}
}

func TestQueryPaginationContract(t *testing.T) {
	const threeXML = `<dblp>
	  <article><author>A</author></article>
	  <article><author>B</author></article>
	  <article><author>C</author></article>
	</dblp>`
	e, err := core.FromReader("three", strings.NewReader(threeXML))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)

	type page struct {
		Answers    []struct{ Path string } `json:"answers"`
		Total      int                     `json:"total"`
		Offset     int                     `json:"offset"`
		NextOffset int                     `json:"nextOffset"`
	}
	// Three author nodes.  Page size 2: page 1 is full and points at page 2.
	var p1 page
	if code := postJSON(t, ts.URL+"/api/v1/query", `{"query": "//article/author", "k": 2}`, &p1); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(p1.Answers) != 2 || p1.Total != 2 || p1.Offset != 0 || p1.NextOffset != 2 {
		t.Fatalf("page1 = %+v", p1)
	}
	// Page 2 holds the final answer and advertises no further page.
	var p2 page
	if code := postJSON(t, ts.URL+"/api/v1/query", `{"query": "//article/author", "k": 2, "offset": 2}`, &p2); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(p2.Answers) != 1 || p2.Total != 3 || p2.Offset != 2 || p2.NextOffset != 0 {
		t.Fatalf("page2 = %+v", p2)
	}
	// Paging past the end is a valid empty page, not an error.
	var p3 page
	if code := postJSON(t, ts.URL+"/api/v1/query", `{"query": "//article/author", "k": 2, "offset": 10}`, &p3); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(p3.Answers) != 0 || p3.NextOffset != 0 {
		t.Fatalf("page3 = %+v", p3)
	}
}

func TestQueryTimeoutEnvelopeAndMetrics(t *testing.T) {
	reg := metrics.New()
	srv := NewConfig(slowEngine(t), Config{QueryTimeout: 75 * time.Millisecond, Metrics: reg})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	start := time.Now()
	res, err := http.Post(ts.URL+"/api/v1/query", "application/json", strings.NewReader(slowQueryBody))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	elapsed := time.Since(start)
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", res.StatusCode)
	}
	var e errEnvelope
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != "timeout" {
		t.Fatalf("code = %q, want timeout", e.Error.Code)
	}
	// Cooperative cancellation: the join must stop within a small multiple
	// of the 75ms deadline, not run the full cross product.
	if elapsed > time.Second {
		t.Fatalf("timed-out query took %v", elapsed)
	}

	snap := reg.Snapshot()
	q := snap.Endpoints["query"]
	if q.Requests != 1 || q.Timeouts != 1 || q.Errors != 1 {
		t.Fatalf("query metrics = %+v", q)
	}
	if q.Latency.Count != 1 || q.Latency.P99MS <= 0 {
		t.Fatalf("latency snapshot = %+v", q.Latency)
	}
}

func TestLoadShed503(t *testing.T) {
	reg := metrics.New()
	srv := NewConfig(slowEngine(t), Config{
		QueryTimeout: 2 * time.Second, // bounds the blocking query
		MaxInflight:  1,
		Metrics:      reg,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Occupy the single slot with the slow query.  A poll below can win the
	// slot first and shed the query instead, so resend it until admitted.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			res, err := http.Post(ts.URL+"/api/v1/query", "application/json", strings.NewReader(slowQueryBody))
			if err != nil {
				return
			}
			res.Body.Close()
			if res.StatusCode != http.StatusServiceUnavailable {
				return
			}
		}
	}()

	// Wait until the slow query is actually in flight, then expect sheds.
	deadline := time.Now().Add(2 * time.Second)
	var shedRes *http.Response
	for time.Now().Before(deadline) {
		res, err := http.Get(ts.URL + "/api/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode == http.StatusServiceUnavailable {
			shedRes = res
			break
		}
		res.Body.Close()
		time.Sleep(5 * time.Millisecond)
	}
	if shedRes == nil {
		t.Fatal("never saw a 503 while the limiter was full")
	}
	defer shedRes.Body.Close()
	if shedRes.Header.Get("Retry-After") == "" {
		t.Error("Retry-After missing on shed response")
	}
	var e errEnvelope
	if err := json.NewDecoder(shedRes.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Error.Code != "overloaded" {
		t.Fatalf("code = %q, want overloaded", e.Error.Code)
	}

	// The metrics endpoint is exempt from the limiter and reflects the shed.
	res, err := http.Get(ts.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("metrics under load: status %d", res.StatusCode)
	}
	var snap metrics.Snapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Endpoints["stats"].Shed < 1 {
		t.Fatalf("stats shed = %d, want >= 1", snap.Endpoints["stats"].Shed)
	}
	wg.Wait()
}

func TestMetricsEndpoint(t *testing.T) {
	e, err := core.FromReader("bib", strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)

	var out struct{ Answers []any }
	postJSON(t, ts.URL+"/api/v1/query", `{"query": "//article/author"}`, &out)
	getJSON(t, ts.URL+"/api/v1/complete?kind=tag&prefix=a", &struct{}{})

	var snap metrics.Snapshot
	if code := getJSON(t, ts.URL+"/api/v1/metrics", &snap); code != 200 {
		t.Fatalf("status %d", code)
	}
	if snap.Endpoints["query"].Requests != 1 || snap.Endpoints["complete"].Requests != 1 {
		t.Fatalf("endpoints = %+v", snap.Endpoints)
	}
	if snap.Endpoints["query"].Latency.P50MS <= 0 {
		t.Fatalf("query latency = %+v", snap.Endpoints["query"].Latency)
	}
	if snap.Algorithms["twigstack"].Count != 1 {
		t.Fatalf("algorithms = %+v", snap.Algorithms)
	}
	if snap.UptimeSeconds <= 0 {
		t.Fatal("uptime missing")
	}
}

// TestConcurrentTraffic exercises /api/v1/query and /api/v1/complete from
// many goroutines; run with -race this doubles as the data-race check over
// the serving layer (see the tier-1 recipe in ROADMAP.md).
func TestConcurrentTraffic(t *testing.T) {
	e, err := core.FromReader("bib", strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewConfig(e, Config{QueryTimeout: 5 * time.Second, MaxInflight: 64})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := http.Post(ts.URL+"/api/v1/query", "application/json",
					strings.NewReader(`{"query": "//article/author", "k": 3, "rewrite": true}`))
				if err != nil {
					errs <- err
					return
				}
				res.Body.Close()
				if res.StatusCode != 200 {
					errs <- fmt.Errorf("query status %d", res.StatusCode)
					return
				}
				res, err = http.Get(ts.URL + "/api/v1/complete?kind=tag&path=%2F%2Farticle&prefix=a")
				if err != nil {
					errs <- err
					return
				}
				res.Body.Close()
				if res.StatusCode != 200 {
					errs <- fmt.Errorf("complete status %d", res.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	snap := srv.Metrics().Snapshot()
	if snap.Endpoints["query"].Requests != 160 || snap.Endpoints["complete"].Requests != 160 {
		t.Fatalf("request counts = %+v", snap.Endpoints)
	}
}
