package obs

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

func TestDebugMuxHealthAndReady(t *testing.T) {
	var notReady atomic.Bool
	mux := DebugMux(DebugOptions{Ready: func() error {
		if notReady.Load() {
			return errors.New("corpus x: publish in progress")
		}
		return nil
	}})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, b.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	if code, body := get("/readyz"); code != 200 || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz (ready): %d %q", code, body)
	}

	// Readiness flips while the ready hook reports a mutation in flight.
	notReady.Store(true)
	if code, body := get("/readyz"); code != 503 || !strings.Contains(body, "publish in progress") {
		t.Fatalf("/readyz (not ready): %d %q", code, body)
	}
	notReady.Store(false)
	if code, _ := get("/readyz"); code != 200 {
		t.Fatalf("/readyz did not flip back: %d", code)
	}
}

func TestDebugMuxBuildInfo(t *testing.T) {
	srv := httptest.NewServer(DebugMux(DebugOptions{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/buildinfo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Test binaries may or may not embed build info; both statuses are
	// legitimate, but the payload must be JSON either way.
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("buildinfo is not JSON (status %d): %v", resp.StatusCode, err)
	}
	if resp.StatusCode == 200 && v["goVersion"] == "" {
		t.Fatalf("buildinfo missing goVersion: %v", v)
	}
}

func TestDebugMuxPprofIndex(t *testing.T) {
	srv := httptest.NewServer(DebugMux(DebugOptions{}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}
}
