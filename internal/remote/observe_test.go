package remote_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"net/http/httptest"

	"lotusx/internal/corpus"
	"lotusx/internal/faults"
	"lotusx/internal/metrics"
	"lotusx/internal/obs"
	"lotusx/internal/remote"
	"lotusx/internal/server"
	"lotusx/internal/slo"
)

// federationClients builds one metrics-poll client per shard server.
func federationClients(t *testing.T, servers ...*httptest.Server) []*remote.Client {
	t.Helper()
	clients := make([]*remote.Client, len(servers))
	for i, ts := range servers {
		cl, err := remote.NewClient(remote.ClientConfig{
			BaseURL: ts.URL,
			Name:    fmt.Sprintf("shard-%d", i),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cl
	}
	return clients
}

// TestMetricsFederation: the federator pulls each shard server's snapshot
// into the cluster rollup; a dead server is marked down but its last-known
// snapshot survives, and the merged view renders as lotusx_cluster_*.
func TestMetricsFederation(t *testing.T) {
	t.Parallel()
	docs := slices(t, 2)
	ts0, ts1 := shardServer(t, docs[0]), shardServer(t, docs[1])

	// Traffic on shard 0 so its snapshot carries non-zero request counts.
	body, _ := json.Marshal(map[string]any{"query": "//item/name", "k": 3})
	resp, err := http.Post(ts0.URL+"/api/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	reg := metrics.New()
	fed := remote.NewFederator(remote.FederatorConfig{
		Clients: federationClients(t, ts0, ts1),
		Cluster: reg.Cluster(),
	})
	fed.PollOnce(context.Background())

	snap := reg.Cluster().Snapshot()
	if len(snap.Servers) != 2 {
		t.Fatalf("federated %d servers, want 2", len(snap.Servers))
	}
	s0 := snap.Servers["shard-0"]
	if !s0.Up || s0.Metrics == nil || s0.AgeSeconds < 0 {
		t.Fatalf("shard-0 = %+v, want up with a snapshot", s0)
	}
	if s0.Metrics.Endpoints["query"].Requests == 0 {
		t.Fatal("shard-0 snapshot lost the query traffic")
	}

	// Kill shard 1: next poll marks it down, last snapshot kept.
	ts1.Close()
	fed.PollOnce(context.Background())
	snap = reg.Cluster().Snapshot()
	s1 := snap.Servers["shard-1"]
	if s1.Up || s1.Error == "" {
		t.Fatalf("shard-1 = %+v, want down with an error", s1)
	}
	if s1.Metrics == nil {
		t.Fatal("shard-1's last-known snapshot was discarded on failure")
	}

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`lotusx_cluster_server_up{server="shard-0"} 1`,
		`lotusx_cluster_server_up{server="shard-1"} 0`,
		`lotusx_cluster_server_requests_total{server="shard-0"}`,
		"# TYPE lotusx_cluster_server_error_ratio gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cluster exposition missing %q", want)
		}
	}
}

// TestFederatorLoop: Start polls immediately and keeps polling; Stop is
// idempotent and safe on a never-started federator.
func TestFederatorLoop(t *testing.T) {
	t.Parallel()
	docs := slices(t, 1)
	ts := shardServer(t, docs[0])
	reg := metrics.New()
	fed := remote.NewFederator(remote.FederatorConfig{
		Clients:  federationClients(t, ts),
		Cluster:  reg.Cluster(),
		Interval: 5 * time.Millisecond,
	})
	fed.Start()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s := reg.Cluster().Snapshot().Servers["shard-0"]; s.Up {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("federator never polled")
		}
		time.Sleep(time.Millisecond)
	}
	fed.Stop()
	fed.Stop() // idempotent

	empty := remote.NewFederator(remote.FederatorConfig{})
	empty.Start()
	empty.Stop() // no-op start must not wedge Stop
}

// TestRouterClusterMetricsEndpoint: the router serves the merged rollup at
// GET /api/v1/cluster/metrics.
func TestRouterClusterMetricsEndpoint(t *testing.T) {
	t.Parallel()
	docs := slices(t, 1)
	ts := shardServer(t, docs[0])
	cl := newCluster(t, [][]*httptest.Server{{ts}}, -1, corpus.Tuning{})
	reg := metrics.New()
	fed := remote.NewFederator(remote.FederatorConfig{
		Clients: federationClients(t, ts),
		Cluster: reg.Cluster(),
	})
	fed.PollOnce(context.Background())
	rt := routerServer(t, cl, server.Config{Metrics: reg})

	resp, err := http.Get(rt.URL + "/api/v1/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster metrics status = %d", resp.StatusCode)
	}
	var got metrics.ClusterSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if s := got.Servers["shard-0"]; !s.Up || s.Metrics == nil {
		t.Fatalf("rollup = %+v, want shard-0 up with metrics", got.Servers)
	}
}

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
