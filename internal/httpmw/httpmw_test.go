package httpmw

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lotusx/internal/metrics"
)

func TestRequestID(t *testing.T) {
	var seen string
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	})
	serve := func(w http.ResponseWriter, r *http.Request) {
		_, r = Begin(w, r, false)
		h.ServeHTTP(w, r)
	}
	rr := httptest.NewRecorder()
	serve(rr, httptest.NewRequest("GET", "/", nil))
	if seen == "" || rr.Header().Get("X-Request-Id") != seen {
		t.Fatalf("id = %q, header = %q", seen, rr.Header().Get("X-Request-Id"))
	}
	// Inbound IDs are preserved.
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set("X-Request-Id", "upstream-7")
	serve(httptest.NewRecorder(), req)
	if seen != "upstream-7" {
		t.Fatalf("inbound id not preserved: %q", seen)
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

func TestRateLimitPerClientBuckets(t *testing.T) {
	clock := time.Unix(1000, 0)
	reg := metrics.New()
	am := reg.Admission()
	l := NewRateLimiter(10, 2, am)
	l.now = func() time.Time { return clock }

	// The burst admits two; the third is refused, told when to retry.
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("alice"); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, wait := l.Allow("alice")
	if ok {
		t.Fatal("over-rate request admitted")
	}
	if wait <= 0 {
		t.Errorf("wait = %v, want the time to the next token", wait)
	}

	// A different client has its own untouched bucket.
	if ok, _ := l.Allow("bob"); !ok {
		t.Fatal("second client limited")
	}

	// Advancing the clock refills alice at QPS.
	clock = clock.Add(100 * time.Millisecond) // 10 QPS -> one token
	if ok, _ := l.Allow("alice"); !ok {
		t.Fatal("refilled request refused")
	}

	if am.Allowed.Load() != 4 || am.Limited.Load() != 1 {
		t.Fatalf("admission counters: allowed=%d limited=%d", am.Allowed.Load(), am.Limited.Load())
	}
	if n := reg.Snapshot().Admission.Clients; n != 2 {
		t.Fatalf("client gauge = %d, want 2", n)
	}
}

// TestRateLimitExemptAndDisabled: QPS <= 0 is no limiter, which admits
// everything.  Exempt routes never reach the limiter; the server's
// TestRateLimitOnServer pins that through the route table.
func TestRateLimitExemptAndDisabled(t *testing.T) {
	off := NewRateLimiter(0, 1, nil)
	if off != nil {
		t.Fatalf("NewRateLimiter(0) = %+v, want nil", off)
	}
	for i := 0; i < 5; i++ {
		if ok, _ := off.Allow("alice"); !ok {
			t.Fatalf("disabled limiter refused request %d", i)
		}
	}
}

func TestRateLimitEvictsIdleBuckets(t *testing.T) {
	clock := time.Unix(1000, 0)
	reg := metrics.New()
	am := reg.Admission()
	l := NewRateLimiter(10, 2, am)
	l.now = func() time.Time { return clock }
	l.maxClients = 2
	l.Allow("a")
	l.Allow("b")
	clock = clock.Add(time.Minute) // both buckets idle back to full
	l.Allow("c")                   // table full: an idle bucket is evicted
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
