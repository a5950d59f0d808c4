package server

import (
	"net/http"
	"strings"
	"testing"
	"time"

	"lotusx/internal/corpus"
	"lotusx/internal/faults"
)

// TestAdminErrorEnvelopes is the satellite contract check: every admin-route
// failure mode answers the uniform v1 envelope — {"error": {code, message,
// requestId}} — with the code matching the status class.
func TestAdminErrorEnvelopes(t *testing.T) {
	const smallXML = "<dblp><article><title>A</title></article></dblp>"
	ts, _ := adminServer(t, Config{MaxIngestBytes: 64})

	if code := do(t, "POST", ts.URL+"/api/v1/datasets/seeded?sync=1", smallXML, nil); code != http.StatusCreated {
		t.Fatalf("seed dataset: status %d", code)
	}

	big := strings.Repeat("x", 65)
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		status   int
		code     string
		allow    bool // a 405 must carry the Allow header
		contains string
	}{
		{name: "create bad name", method: "POST", path: "/api/v1/datasets/.hidden?sync=1", body: smallXML,
			status: http.StatusBadRequest, code: "bad_query", contains: "dataset name"},
		{name: "create bad shards", method: "POST", path: "/api/v1/datasets/x?shards=0&sync=1", body: smallXML,
			status: http.StatusBadRequest, code: "bad_query"},
		{name: "create bad xml sync", method: "POST", path: "/api/v1/datasets/x?sync=1", body: "<not-xml",
			status: http.StatusBadRequest, code: "bad_query"},
		{name: "shard add bad name", method: "POST", path: "/api/v1/datasets/seeded/shards/..%2Fevil", body: "<a/>",
			status: http.StatusBadRequest, code: "bad_query"},

		{name: "delete missing dataset", method: "DELETE", path: "/api/v1/datasets/missing",
			status: http.StatusNotFound, code: "not_found"},
		{name: "shard add missing dataset", method: "POST", path: "/api/v1/datasets/missing/shards/x", body: smallXML,
			status: http.StatusNotFound, code: "not_found"},
		{name: "compact missing dataset", method: "POST", path: "/api/v1/datasets/missing/compact",
			status: http.StatusNotFound, code: "not_found"},
		{name: "shard delete missing", method: "DELETE", path: "/api/v1/datasets/seeded/shards/nope",
			status: http.StatusNotFound, code: "not_found"},
		{name: "unknown job", method: "GET", path: "/api/v1/jobs/j424242",
			status: http.StatusNotFound, code: "not_found"},

		{name: "jobs wrong method", method: "DELETE", path: "/api/v1/jobs",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: true},
		{name: "dataset wrong method", method: "PATCH", path: "/api/v1/datasets/seeded",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: true},
		{name: "compact wrong method", method: "GET", path: "/api/v1/datasets/seeded/compact",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: true},
		{name: "query wrong method", method: "DELETE", path: "/api/v1/query",
			status: http.StatusMethodNotAllowed, code: "method_not_allowed", allow: true},

		{name: "create too large sync", method: "POST", path: "/api/v1/datasets/x?sync=1", body: big,
			status: http.StatusRequestEntityTooLarge, code: "too_large"},
		{name: "create too large async", method: "POST", path: "/api/v1/datasets/x", body: big,
			status: http.StatusRequestEntityTooLarge, code: "too_large"},
		{name: "shard add too large", method: "POST", path: "/api/v1/datasets/seeded/shards/x?sync=1", body: big,
			status: http.StatusRequestEntityTooLarge, code: "too_large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var env errEnvelope
			res, code := doFull(t, tc.method, ts.URL+tc.path, tc.body, &env)
			if code != tc.status {
				t.Fatalf("%s %s: status %d, want %d", tc.method, tc.path, code, tc.status)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code %q, want %q", env.Error.Code, tc.code)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
			if env.Error.RequestID == "" {
				t.Error("missing requestId in error envelope")
			}
			if tc.contains != "" && !strings.Contains(env.Error.Message, tc.contains) {
				t.Errorf("message %q does not mention %q", env.Error.Message, tc.contains)
			}
			if tc.allow {
				if allow := res.Header.Get("Allow"); allow == "" {
					t.Error("405 without Allow header")
				}
			}
		})
	}
}

// TestShardOutageErrorEnvelopes: query, completion and explain meet a shard
// outage under one rule — every shard failing (or one, under failfast) is
// 502 upstream_failed, every shard quarantined is 503 overloaded with a
// Retry-After — because all three cross the fan-out through one discipline
// and answer through writeBackendError.
func TestShardOutageErrorEnvelopes(t *testing.T) {
	endpoints := []struct{ name, method, path, body string }{
		{"query", "POST", "/api/v1/query?dataset=bib", `{"query":"//article/title","k":10}`},
		{"complete tag", "GET", "/api/v1/complete?dataset=bib&kind=tag&path=%2F%2Farticle&axis=child", ""},
		{"complete value", "GET", "/api/v1/complete?dataset=bib&kind=value&path=%2F%2Farticle%2Ftitle", ""},
		{"explain", "GET", "/api/v1/explain?dataset=bib&path=%2F%2Farticle&tag=title", ""},
	}
	failAll := func(reg *faults.Registry, keys ...string) {
		reg.Enable(faults.Injection{Site: corpus.FaultShardSearch, Keys: keys, Err: errShardDown})
		reg.Enable(faults.Injection{Site: corpus.FaultShardComplete, Keys: keys, Err: errShardDown})
	}
	scenarios := []struct {
		name   string
		tuning corpus.Tuning
		arm    func(t *testing.T, ts string, reg *faults.Registry)
		status int
		code   string
	}{
		{name: "every shard failing", tuning: corpus.Tuning{BreakerThreshold: -1},
			arm:    func(_ *testing.T, _ string, reg *faults.Registry) { failAll(reg) },
			status: http.StatusBadGateway, code: "upstream_failed"},
		{name: "failfast one shard failing", tuning: corpus.Tuning{Policy: corpus.PolicyFailFast, BreakerThreshold: -1},
			arm:    func(_ *testing.T, _ string, reg *faults.Registry) { failAll(reg, "bib/002") },
			status: http.StatusBadGateway, code: "upstream_failed"},
		{name: "every shard quarantined", tuning: corpus.Tuning{BreakerThreshold: 1, BreakerCooldown: time.Hour},
			arm: func(t *testing.T, ts string, reg *faults.Registry) {
				// One failing query trips all four breakers; the fault is then
				// disarmed, so what answers below is the quarantine alone.
				failAll(reg)
				if code := do(t, "POST", ts+"/api/v1/query?dataset=bib", `{"query":"//article/title"}`, nil); code != http.StatusBadGateway {
					t.Fatalf("tripping query: status %d, want 502", code)
				}
				reg.Reset()
			},
			status: http.StatusServiceUnavailable, code: "overloaded"},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ts, _, reg, _ := faultServer(t, sc.tuning)
			sc.arm(t, ts.URL, reg)
			for _, ep := range endpoints {
				var env errEnvelope
				res, code := doFull(t, ep.method, ts.URL+ep.path, ep.body, &env)
				if code != sc.status || env.Error.Code != sc.code {
					t.Errorf("%s: status %d code %q, want %d %q (%s)", ep.name, code, env.Error.Code, sc.status, sc.code, env.Error.Message)
				}
				if env.Error.RequestID == "" {
					t.Errorf("%s: missing requestId in error envelope", ep.name)
				}
				if sc.status == http.StatusServiceUnavailable && res.Header.Get("Retry-After") == "" {
					t.Errorf("%s: 503 without Retry-After", ep.name)
				}
			}
		})
	}
}
