package server

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/httpmw"
	"lotusx/internal/metrics"
	"lotusx/internal/twig"
)

// The request envelope, driven through Server.ServeHTTP: admission
// (drain, in-flight slots), the deadline, panic recovery, and the one
// observation every request gets.

// explainBackend serves the bib engine, except that ExplainTags runs the
// test's explain function — a panic, a block, a wait on the deadline — so a
// test can put any handler behaviour behind a real serving route.
type explainBackend struct {
	core.Backend
	explain func(ctx context.Context)
}

func (b explainBackend) ExplainTags(ctx context.Context, q *twig.Query, anchor int, axis twig.Axis, tag string, max int) ([]complete.Occurrence, error) {
	b.explain(ctx)
	return nil, ctx.Err()
}

// explainServer builds a server over the bib engine with explain replaced.
func explainServer(t *testing.T, cfg Config, explain func(ctx context.Context)) *Server {
	t.Helper()
	e, err := core.FromReader("bib", strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCatalog()
	c.AddBackend("bib", explainBackend{Backend: e, explain: explain})
	return NewCatalogConfig(c, cfg)
}

// serve runs one request through the envelope.
func serve(srv *Server, method, target string, hdr ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	return rr
}

// wantRefusal checks a refusal: its status, a Retry-After, and the
// overloaded envelope carrying the request ID.
func wantRefusal(t *testing.T, rr *httptest.ResponseRecorder, status int) {
	t.Helper()
	if rr.Code != status {
		t.Fatalf("status = %d, want %d: %s", rr.Code, status, rr.Body)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("Retry-After missing on refusal")
	}
	var body httpmw.ErrorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("not an error envelope: %q: %v", rr.Body, err)
	}
	if body.Error.Code != httpmw.CodeOverloaded || body.Error.RequestID == "" {
		t.Fatalf("envelope = %+v", body.Error)
	}
}

func seriesNames(reg *metrics.Registry) []string {
	var names []string
	for name := range reg.Snapshot().Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestRefusalsDoNotMintEndpoints: a refused request is recorded under the
// endpoint of the route it matched — junk GET paths match GET / and count
// as page sheds — so outside input adds no endpoint series, whether the
// in-flight limit or a drain refuses it.
func TestRefusalsDoNotMintEndpoints(t *testing.T) {
	reg := metrics.New()
	srv, release := blockingServer(t, reg)
	defer release()
	before := strings.Join(seriesNames(reg), ",")
	for i := 0; i < 20; i++ {
		wantRefusal(t, serve(srv, "GET", "/junk-"+strconv.Itoa(i)), http.StatusServiceUnavailable)
	}
	srv.BeginDrain()
	for i := 0; i < 20; i++ {
		rr := serve(srv, "GET", "/drained-"+strconv.Itoa(i)+"/x")
		wantRefusal(t, rr, http.StatusServiceUnavailable)
	}
	if after := strings.Join(seriesNames(reg), ","); after != before {
		t.Fatalf("refusals minted endpoints: before %s, after %s", before, after)
	}
	if page := reg.Snapshot().Endpoints["page"]; page.Shed != 40 || page.Requests != 40 || page.Errors != 40 {
		t.Fatalf("page = requests %d errors %d shed %d, want 40/40/40", page.Requests, page.Errors, page.Shed)
	}

	// A request no pattern matches gets the mux's 405 without passing
	// admission, and still carries its request ID.
	rr := serve(srv, "POST", "/junk")
	if rr.Code != http.StatusMethodNotAllowed || rr.Header().Get("X-Request-Id") == "" {
		t.Fatalf("POST /junk while draining: %d, X-Request-Id %q", rr.Code, rr.Header().Get("X-Request-Id"))
	}
}

// TestPanicIsObserved: a recovered panic is a 500 like any other — counted
// on its endpoint.
func TestPanicIsObserved(t *testing.T) {
	reg := metrics.New()
	srv := explainServer(t, Config{Metrics: reg}, func(context.Context) { panic("boom") })
	if rr := serve(srv, "GET", "/api/v1/explain?tag=author"); rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	if ep := reg.Snapshot().Endpoints["explain"]; ep.Requests != 1 || ep.Errors != 1 || ep.Latency.Count != 1 {
		t.Fatalf("explain = %+v", ep)
	}
}

// TestServerErrorsCounted: an endpoint's server errors are the bad events of
// an availability objective, so they count every response the server owes
// — a panic, both admission refusals, an expired deadline — and no client
// error.
func TestServerErrorsCounted(t *testing.T) {
	nop := func(context.Context) {}
	cases := []struct {
		name     string
		cfg      Config
		explain  func(context.Context)
		hold     bool // one explain request holds the only in-flight slot
		drain    bool
		target   string
		endpoint string
		status   int
		counted  bool
	}{
		{name: "panic", explain: func(context.Context) { panic("boom") },
			target: "/api/v1/explain?tag=author", endpoint: "explain", status: http.StatusInternalServerError, counted: true},
		{name: "in-flight-refusal", hold: true,
			target: "/api/v1/stats", endpoint: "stats", status: http.StatusServiceUnavailable, counted: true},
		{name: "drain-refusal", explain: nop, drain: true,
			target: "/api/v1/stats", endpoint: "stats", status: http.StatusServiceUnavailable, counted: true},
		{name: "deadline", cfg: Config{QueryTimeout: time.Millisecond}, explain: func(ctx context.Context) { <-ctx.Done() },
			target: "/api/v1/explain?tag=author", endpoint: "explain", status: http.StatusGatewayTimeout, counted: true},
		{name: "bad-request", explain: nop,
			target: "/api/v1/explain", endpoint: "explain", status: http.StatusBadRequest},
		{name: "not-found", explain: nop,
			target: "/api/v1/stats?dataset=nope", endpoint: "stats", status: http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			var srv *Server
			if tc.hold {
				var release func()
				srv, release = blockingServer(t, reg)
				defer release()
			} else {
				tc.cfg.Metrics = reg
				srv = explainServer(t, tc.cfg, tc.explain)
			}
			if tc.drain {
				srv.BeginDrain()
			}
			if rr := serve(srv, "GET", tc.target); rr.Code != tc.status {
				t.Fatalf("status = %d, want %d: %s", rr.Code, tc.status, rr.Body)
			}
			want := int64(0)
			if tc.counted {
				want = 1
			}
			if ep := reg.Snapshot().Endpoints[tc.endpoint]; ep.ServerErrors != want {
				t.Fatalf("%s server errors = %d, want %d (%+v)", tc.endpoint, ep.ServerErrors, want, ep)
			}
		})
	}
}

// The tests below pin one envelope mechanism each: recovery, the access
// log's cost, the deadline, the in-flight limit, recording and the drain.

func TestRecoverPanicToJSON500(t *testing.T) {
	srv := explainServer(t, Config{}, func(context.Context) { panic("boom") })
	rr := serve(srv, "GET", "/api/v1/explain?tag=author")
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rr.Code)
	}
	var body httpmw.ErrorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("not an error envelope: %q: %v", rr.Body, err)
	}
	if body.Error.Code != httpmw.CodeInternal {
		t.Fatalf("code = %q", body.Error.Code)
	}
}

// TestLoggingNilBuildsNoLine: with no logger, a request pays for neither the
// access-log line nor the annotations a live logger collects.
func TestLoggingNilBuildsNoLine(t *testing.T) {
	annotate := func(ctx context.Context) { httpmw.Annotate(ctx, "rows", 3) }
	allocs := func(l *slog.Logger) float64 {
		srv := explainServer(t, Config{Logger: l, TraceCapacity: -1}, annotate)
		return testing.AllocsPerRun(100, func() { serve(srv, "GET", "/api/v1/explain?tag=author") })
	}
	quiet, logged := allocs(nil), allocs(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if quiet >= logged {
		t.Fatalf("a nil logger allocates %.0f per request, a live logger %.0f", quiet, logged)
	}
}

func TestDeadlineExpiresContext(t *testing.T) {
	var err error
	srv := explainServer(t, Config{QueryTimeout: 5 * time.Millisecond}, func(ctx context.Context) {
		<-ctx.Done()
		err = ctx.Err()
	})
	rr := serve(srv, "GET", "/api/v1/explain?tag=author")
	if err != context.DeadlineExceeded {
		t.Fatalf("ctx err = %v", err)
	}
	if rr.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rr.Code)
	}
}

// blockingServer serves explain by blocking until release closes, with one
// in-flight slot; it returns once an explain request holds the slot.
func blockingServer(t *testing.T, reg *metrics.Registry) (srv *Server, release func()) {
	t.Helper()
	enter, unblock := make(chan struct{}), make(chan struct{})
	srv = explainServer(t, Config{Metrics: reg, MaxInflight: 1}, func(context.Context) {
		close(enter)
		<-unblock
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serve(srv, "GET", "/api/v1/explain?tag=author")
	}()
	<-enter // the explain request holds the only slot
	return srv, func() { close(unblock); wg.Wait() }
}

func TestLimitSheds(t *testing.T) {
	reg := metrics.New()
	srv, release := blockingServer(t, reg)
	defer release()
	wantRefusal(t, serve(srv, "GET", "/api/v1/stats"), http.StatusServiceUnavailable)
	if shed := reg.Snapshot().Endpoints["stats"].Shed; shed != 1 {
		t.Fatalf("shed = %d", shed)
	}
}

func TestLimitExempt(t *testing.T) {
	srv, release := blockingServer(t, metrics.New())
	defer release()
	if rr := serve(srv, "GET", "/api/v1/metrics"); rr.Code != http.StatusOK {
		t.Fatalf("exempt path shed: %d", rr.Code)
	}
}

// TestInstrumentRecords: each request is recorded once, on the endpoint of
// its route — a 405 fallback on its path's endpoint.
func TestInstrumentRecords(t *testing.T) {
	reg := metrics.New()
	srv := explainServer(t, Config{Metrics: reg, QueryTimeout: time.Millisecond}, func(ctx context.Context) { <-ctx.Done() })
	serve(srv, "GET", "/api/v1/explain?tag=author")
	s := reg.Snapshot().Endpoints["explain"]
	if s.Requests != 1 || s.Timeouts != 1 || s.Errors != 1 || s.Latency.Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if rr := serve(srv, "DELETE", "/api/v1/query"); rr.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /api/v1/query = %d, want 405", rr.Code)
	}
	if q := reg.Snapshot().Endpoints["query"]; q.Requests != 1 || q.Errors != 1 {
		t.Fatalf("405 fallback recorded as %+v on query", q)
	}
}

func TestDrainGateRefusesWhileDraining(t *testing.T) {
	reg := metrics.New()
	srv := explainServer(t, Config{Metrics: reg}, func(context.Context) {})
	if rr := serve(srv, "GET", "/api/v1/explain?tag=author"); rr.Code != http.StatusOK {
		t.Fatalf("refused before drain: %d", rr.Code)
	}

	srv.BeginDrain()
	wantRefusal(t, serve(srv, "GET", "/api/v1/explain?tag=author"), http.StatusServiceUnavailable)
	if n := reg.Snapshot().Lifecycle.DrainRejected; n != 1 {
		t.Fatalf("rejected = %d", n)
	}

	// Exempt routes still answer: the load balancer must be able to read
	// the metrics to learn the instance is going away.
	if rr := serve(srv, "GET", "/metrics"); rr.Code != http.StatusOK {
		t.Fatalf("exempt path refused: %d", rr.Code)
	}
}
