package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lotusx/internal/corpus"
	"lotusx/internal/faults"
	"lotusx/internal/obs"
	"lotusx/internal/remote"
	"lotusx/internal/server"
	"lotusx/internal/slo"
)

// walkNames flattens a rendered span tree into its span names.
func walkNames(n *obs.Node) []string {
	if n == nil {
		return nil
	}
	names := []string{n.Name}
	for _, c := range n.Children {
		names = append(names, walkNames(c)...)
	}
	return names
}

// TestTailSampledTraceRetrieval is the acceptance path: a degraded request
// served WITHOUT ?debug=trace is retrievable minutes later from
// GET /api/v1/traces/{requestId}, grafted shard-server spans included.
func TestTailSampledTraceRetrieval(t *testing.T) {
	t.Parallel()
	docs := slices(t, 2)
	cl := newCluster(t, [][]*httptest.Server{
		{shardServer(t, docs[0])},
		{shardServer(t, docs[1])},
	}, -1, corpus.Tuning{})
	rt := routerServer(t, cl, server.Config{})

	// Shard 1 down: the answer degrades to partial — an interesting trace.
	cl.faults.Enable(faults.Injection{
		Site: remote.FaultRPC,
		Keys: []string{cl.replica(1, 0)},
		Err:  errors.New("injected connection failure"),
	})

	body, _ := json.Marshal(map[string]any{"query": "//item/name", "k": 3})
	req, _ := http.NewRequest(http.MethodPost, rt.URL+"/api/v1/query", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "tail-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	var qr struct {
		Partial bool      `json:"partial"`
		Trace   *obs.Node `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if !qr.Partial {
		t.Fatal("request did not degrade")
	}
	if qr.Trace != nil {
		t.Fatal("untraced request returned a trace in the response")
	}

	// The list names it with its classification...
	lresp, err := http.Get(rt.URL + "/api/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list struct {
		Traces   []obs.TraceRecord `json:"traces"`
		Retained int               `json:"retained"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	var summary *obs.TraceRecord
	for i := range list.Traces {
		if list.Traces[i].RequestID == "tail-req-1" {
			summary = &list.Traces[i]
		}
	}
	if summary == nil {
		t.Fatalf("trace list %+v lacks tail-req-1", list.Traces)
	}
	if !summary.Partial || summary.Endpoint != "query" || summary.Trace != nil {
		t.Fatalf("summary = %+v, want partial query without tree", summary)
	}

	// ...and the fetch returns the full tree with grafted shard spans.
	gresp, err := http.Get(rt.URL + "/api/v1/traces/tail-req-1")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status = %d", gresp.StatusCode)
	}
	var rec obs.TraceRecord
	if err := json.NewDecoder(gresp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if rec.Trace == nil {
		t.Fatal("retained record has no span tree")
	}
	joined := strings.Join(walkNames(rec.Trace), " ")
	if !strings.Contains(joined, "rpc") || strings.Count(joined, "query") < 2 {
		t.Fatalf("trace %q lacks grafted remote spans", joined)
	}

	// Stage filtering reaches into the grafted subtree.
	sresp, err := http.Get(rt.URL + "/api/v1/traces?stage=join")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	list.Traces = nil
	if err := json.NewDecoder(sresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Traces) == 0 {
		t.Fatal("stage=join filter missed the grafted shard evaluation spans")
	}

	// An unknown ID is a clean 404.
	nresp, err := http.Get(rt.URL + "/api/v1/traces/no-such-request")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace status = %d, want 404", nresp.StatusCode)
	}
}

// TestHedgedTraceRetained: a hedged request is interesting on its own —
// retained without error, partial or slowness.
func TestHedgedTraceRetained(t *testing.T) {
	t.Parallel()
	docs := slices(t, 1)
	cl := newCluster(t, [][]*httptest.Server{{shardServer(t, docs[0]), shardServer(t, docs[0])}}, 5*time.Millisecond, corpus.Tuning{})
	rt := routerServer(t, cl, server.Config{})

	cl.faults.Enable(faults.Injection{
		Site: remote.FaultRPC,
		Keys: []string{cl.replica(0, 0)},
		Hook: func(ctx context.Context, key string) error {
			<-ctx.Done() // hold the primary until the hedge wins
			return ctx.Err()
		},
	})
	body, _ := json.Marshal(map[string]any{"query": "//item/name", "k": 3})
	req, _ := http.NewRequest(http.MethodPost, rt.URL+"/api/v1/query", bytes.NewReader(body))
	req.Header.Set("X-Request-Id", "hedge-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}

	gresp, err := http.Get(rt.URL + "/api/v1/traces/hedge-req-1")
	if err != nil {
		t.Fatal(err)
	}
	defer gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("hedged trace fetch status = %d", gresp.StatusCode)
	}
	var rec obs.TraceRecord
	if err := json.NewDecoder(gresp.Body).Decode(&rec); err != nil {
		t.Fatal(err)
	}
	if !rec.Hedged {
		t.Fatalf("record = %+v, want Hedged", rec)
	}
}

// TestSLOBurnUnderShardFailure: with every shard down and failfast policy,
// query 5xxes burn the availability budget — the lotusx_slo_* families and
// the burning signal must move.
func TestSLOBurnUnderShardFailure(t *testing.T) {
	t.Parallel()
	docs := slices(t, 1)
	ts := shardServer(t, docs[0])
	cl := newCluster(t, [][]*httptest.Server{{ts}}, -1,
		corpus.Tuning{Policy: corpus.PolicyFailFast})

	tracker, err := slo.New(slo.Config{
		Objectives: []slo.Objective{{Name: "availability", Target: 0.999}},
		MinEvents:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt := routerServer(t, cl, server.Config{SLO: tracker})

	cl.faults.Enable(faults.Injection{
		Site: remote.FaultRPC,
		Keys: []string{cl.replica(0, 0)},
		Err:  errors.New("injected outage"),
	})
	body, _ := json.Marshal(map[string]any{"query": "//item/name", "k": 3})
	for i := 0; i < 10; i++ {
		resp, err := http.Post(rt.URL+"/api/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 500 {
			t.Fatalf("query %d status = %d, want 5xx under failfast outage", i, resp.StatusCode)
		}
	}

	st := tracker.Snapshot().Objectives[0]
	if st.BadTotal < 10 || st.FastBurnRate < slo.DefaultFastBurnAlert || !st.Burning {
		t.Fatalf("objective = %+v, want burning after 10 failures", st)
	}
	if tracker.Burning() == "" {
		t.Fatal("Burning() empty during an outage")
	}

	// The signal rides the router's Prometheus exposition and JSON metrics.
	mresp, err := http.Get(rt.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	out := buf.String()
	for _, want := range []string{
		`lotusx_slo_burning{objective="availability"} 1`,
		"# TYPE lotusx_slo_burn_rate gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("router exposition missing %q", want)
		}
	}

	jresp, err := http.Get(rt.URL + "/api/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var snap struct {
		SLO *slo.Snapshot `json:"slo"`
	}
	if err := json.NewDecoder(jresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.SLO == nil || len(snap.SLO.Objectives) != 1 || !snap.SLO.Objectives[0].Burning {
		t.Fatalf("/api/v1/metrics slo = %+v, want burning objective", snap.SLO)
	}
}
