package httpmw

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lotusx/internal/metrics"
)

func decodeErr(t *testing.T, rr *httptest.ResponseRecorder) ErrorBody {
	t.Helper()
	var body ErrorBody
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("not an error envelope: %q: %v", rr.Body.String(), err)
	}
	return body
}

func TestChainOrder(t *testing.T) {
	var order []string
	mk := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				order = append(order, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}), mk("a"), mk("b"))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestRequestID(t *testing.T) {
	var seen string
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}), RequestID())
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if seen == "" || rr.Header().Get("X-Request-Id") != seen {
		t.Fatalf("id = %q, header = %q", seen, rr.Header().Get("X-Request-Id"))
	}
	// Inbound IDs are preserved.
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("X-Request-Id", "upstream-7")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if seen != "upstream-7" {
		t.Fatalf("inbound id not preserved: %q", seen)
	}
}

func TestRecoverPanicToJSON500(t *testing.T) {
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}), Logging(nil), Recover(nil))
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d", rr.Code)
	}
	if body := decodeErr(t, rr); body.Error.Code != CodeInternal {
		t.Fatalf("code = %q", body.Error.Code)
	}
}

// TestLoggingNilBuildsNoLine: with no logger, a request pays for neither the
// access-log line nor the annotation cell a live logger needs.
func TestLoggingNilBuildsNoLine(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		Annotate(r.Context(), "rows", 3)
	})
	allocs := func(l *slog.Logger) float64 {
		served := Logging(l)(h)
		return testing.AllocsPerRun(100, func() {
			served.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
		})
	}
	quiet, logged := allocs(nil), allocs(slog.New(slog.NewTextHandler(io.Discard, nil)))
	if quiet >= logged {
		t.Fatalf("Logging(nil) allocates %.0f per request, a live logger %.0f", quiet, logged)
	}
}

func TestDeadlineExpiresContext(t *testing.T) {
	var err error
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		err = r.Context().Err()
	}), Deadline(5*time.Millisecond))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	if err != context.DeadlineExceeded {
		t.Fatalf("ctx err = %v", err)
	}
}

func TestLimitSheds(t *testing.T) {
	enter := make(chan struct{})
	release := make(chan struct{})
	var shed int
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(enter)
		<-release
	}), Limit(1, LimitOptions{OnShed: func(*http.Request) { shed++ }}))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	}()
	<-enter // the first request holds the only slot

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("Retry-After missing")
	}
	if body := decodeErr(t, rr); body.Error.Code != CodeOverloaded {
		t.Fatalf("code = %q", body.Error.Code)
	}
	if shed != 1 {
		t.Fatalf("shed = %d", shed)
	}
	close(release)
	wg.Wait()
}

func TestLimitExempt(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			close(started)
			<-block
		}
	}), Limit(1, LimitOptions{Exempt: func(r *http.Request) bool { return r.URL.Path == "/metrics" }}))

	go h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/slow", nil))
	<-started
	defer close(block)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("exempt path shed: %d", rr.Code)
	}
}

func TestInstrumentRecords(t *testing.T) {
	reg := metrics.New()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusGatewayTimeout)
	}), Instrument(reg.Endpoint("q")))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	s := reg.Snapshot().Endpoints["q"]
	if s.Requests != 1 || s.Timeouts != 1 || s.Errors != 1 || s.Latency.Count != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestCodeForStatus(t *testing.T) {
	cases := map[int]string{
		400: CodeBadQuery, 404: CodeNotFound, 429: CodeOverloaded,
		504: CodeTimeout, 500: CodeInternal, 422: CodeBadQuery,
	}
	for status, want := range cases {
		if got := CodeForStatus(status); got != want {
			t.Errorf("CodeForStatus(%d) = %q, want %q", status, got, want)
		}
	}
}

func TestDrainGateRefusesWhileDraining(t *testing.T) {
	var draining bool
	var rejected int
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		DrainGate(func() bool { return draining }, DrainGateOptions{
			OnReject: func(*http.Request) { rejected++ },
			Exempt:   func(r *http.Request) bool { return r.URL.Path == "/readyz" },
		}))

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/query", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("gate refused before drain: %d", rr.Code)
	}

	draining = true
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/api/v1/query", nil))
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("Retry-After missing on drain refusal")
	}
	if body := decodeErr(t, rr); body.Error.Code != CodeOverloaded {
		t.Fatalf("code = %q", body.Error.Code)
	}
	if rejected != 1 {
		t.Fatalf("rejected = %d", rejected)
	}

	// Exempt routes still answer: the load balancer must be able to read
	// /readyz to learn the instance is going away.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/readyz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("exempt path gated: %d", rr.Code)
	}
}

func TestRateLimitPerClientBuckets(t *testing.T) {
	clock := time.Unix(1000, 0)
	reg := metrics.New()
	am := reg.Admission()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		RateLimit(RateLimitOptions{
			QPS: 10, Burst: 2, Metrics: am,
			Now: func() time.Time { return clock },
		}))

	send := func(client string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", "/api/v1/query", nil)
		req.Header.Set("X-Lotusx-Client", client)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	// The burst admits two; the third is refused.
	for i := 0; i < 2; i++ {
		if rr := send("alice"); rr.Code != http.StatusOK {
			t.Fatalf("burst request %d: %d", i, rr.Code)
		}
	}
	rr := send("alice")
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("over-rate status = %d, want 429", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("Retry-After missing on 429")
	}
	if body := decodeErr(t, rr); body.Error.Code != CodeOverloaded {
		t.Fatalf("code = %q", body.Error.Code)
	}

	// A different client has its own untouched bucket.
	if rr := send("bob"); rr.Code != http.StatusOK {
		t.Fatalf("second client limited: %d", rr.Code)
	}

	// Advancing the clock refills alice at QPS.
	clock = clock.Add(100 * time.Millisecond) // 10 QPS -> one token
	if rr := send("alice"); rr.Code != http.StatusOK {
		t.Fatalf("refilled request refused: %d", rr.Code)
	}

	if am.Allowed.Load() != 4 || am.Limited.Load() != 1 {
		t.Fatalf("admission counters: allowed=%d limited=%d", am.Allowed.Load(), am.Limited.Load())
	}
	if n := reg.Snapshot().Admission.Clients; n != 2 {
		t.Fatalf("client gauge = %d, want 2", n)
	}
}

func TestRateLimitExemptAndDisabled(t *testing.T) {
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		RateLimit(RateLimitOptions{
			QPS: 1, Burst: 1,
			Exempt: func(r *http.Request) bool { return r.URL.Path == "/metrics" },
		}))
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("X-Lotusx-Client", "alice")
	for i := 0; i < 5; i++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("exempt request %d limited: %d", i, rr.Code)
		}
	}

	// QPS <= 0 is the disabled middleware: requests pass untouched.
	off := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		RateLimit(RateLimitOptions{QPS: 0}))
	for i := 0; i < 5; i++ {
		rr := httptest.NewRecorder()
		off.ServeHTTP(rr, httptest.NewRequest("GET", "/", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("disabled limiter refused: %d", rr.Code)
		}
	}
}

func TestRateLimitEvictsIdleBuckets(t *testing.T) {
	clock := time.Unix(1000, 0)
	reg := metrics.New()
	am := reg.Admission()
	h := Chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}),
		RateLimit(RateLimitOptions{
			QPS: 10, Burst: 2, MaxClients: 2, Metrics: am,
			Now: func() time.Time { return clock },
		}))
	send := func(client string) {
		req := httptest.NewRequest("GET", "/", nil)
		req.Header.Set("X-Lotusx-Client", client)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	send("a")
	send("b")
	clock = clock.Add(time.Minute) // both buckets idle back to full
	send("c")                      // table full: an idle bucket is evicted
	if am.Evicted.Load() == 0 {
		t.Fatal("no eviction at the client-table bound")
	}
	if n := reg.Snapshot().Admission.Clients; n > 2 {
		t.Fatalf("client gauge = %d, want <= 2", n)
	}
}

func TestClientID(t *testing.T) {
	r := httptest.NewRequest("GET", "/", nil)
	r.RemoteAddr = "10.1.2.3:5555"
	if got := ClientID(r); got != "10.1.2.3" {
		t.Fatalf("ClientID = %q", got)
	}
	r.Header.Set("X-Lotusx-Client", "svc-a")
	if got := ClientID(r); got != "svc-a" {
		t.Fatalf("ClientID with header = %q", got)
	}
	// X-Forwarded-For is deliberately ignored: it is unauthenticated and
	// would let any caller mint fresh buckets.
	r2 := httptest.NewRequest("GET", "/", nil)
	r2.RemoteAddr = "10.1.2.3:5555"
	r2.Header.Set("X-Forwarded-For", "1.2.3.4")
	if got := ClientID(r2); got != "10.1.2.3" {
		t.Fatalf("ClientID honoured X-Forwarded-For: %q", got)
	}
}
