package httpmw

import (
	"net/http"
	"net/http/httptest"
	"testing"
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
