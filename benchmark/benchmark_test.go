package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// small is a workload at scale 1, quick enough for tests.
func small(t *testing.T, name string) workload {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.Scale = 1
	return w
}

func TestStreamIsSeeded(t *testing.T) {
	gen := func(seed int64) []byte {
		stream, err := genStream(seed, small(t, "session.cold").datasets())
		if err != nil {
			t.Fatal(err)
		}
		if len(stream) != streamSessions {
			t.Fatalf("%d sessions, want %d", len(stream), streamSessions)
		}
		data, err := json.Marshal(stream)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(gen(1), gen(1)) {
		t.Error("one seed gave two streams")
	}
	if bytes.Equal(gen(1), gen(2)) {
		t.Error("two seeds gave one stream")
	}
	twigs := map[string]bool{}
	stream, _ := genStream(1, small(t, "session.cold").datasets())
	for _, s := range stream {
		twigs[s.Twig] = true
	}
	if want := len(templates) + authorVariants + termVariants; len(twigs) != want {
		t.Errorf("%d distinct twigs, want %d", len(twigs), want)
	}
}

// fixture serves a workload's in-process twin over real HTTP.
type fixture struct {
	w      workload
	stream []session
	oracle *oracle
	ts     *httptest.Server
}

func newFixture(t *testing.T, name string) *fixture {
	t.Helper()
	f := &fixture{w: small(t, name)}
	var err error
	if f.stream, err = genStream(1, f.w.datasets()); err != nil {
		t.Fatal(err)
	}
	topo, err := buildTopology(f.w, false)
	if err != nil {
		t.Fatal(err)
	}
	if f.oracle, err = buildOracle(topo, f.stream, false); err != nil {
		t.Fatal(err)
	}
	srv := newHandler(f.w, topo)
	f.ts = httptest.NewServer(srv)
	t.Cleanup(func() { f.ts.Close(); srv.Close() })
	return f
}

func (f *fixture) load(t *testing.T) *loadResult {
	t.Helper()
	l := &loader{client: newClient(), base: f.ts.URL, stream: f.stream, oracle: f.oracle,
		warmup: 50 * time.Millisecond, window: 300 * time.Millisecond}
	res, err := l.run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every request of every session is valid against the server's handler, and
// the handler's answers are the oracle's — engine and sharded corpus alike.
func TestSessionsAgreeWithOracle(t *testing.T) {
	for _, name := range []string{"session.cold", "session.shards4"} {
		f := newFixture(t, name)
		res := f.load(t)
		if res.fails != 0 || res.query.n() == 0 || res.complete.n() == 0 {
			t.Errorf("%s: %d failed of %d, %d queries, %d completions: %v",
				name, res.fails, res.attempted, res.query.n(), res.complete.n(), res.errs)
		}
	}
}

// A disagreement with the oracle counts as a failed request and makes the run
// incorrect, which is what makes the command exit non-zero.
func TestOracleDisagreementFails(t *testing.T) {
	f := newFixture(t, "session.cold")
	for key, e := range f.oracle.want {
		if strings.Contains(key, `"query"`) && e.Total > 0 {
			e.Total++
			f.oracle.want[key] = e
			break
		}
	}
	res := f.load(t)
	if res.fails == 0 {
		t.Fatal("a corrupted expected total went unnoticed")
	}
	var setup samples
	setup.add(1)
	rec := newRecord(runConfig{w: f.w, root: t.TempDir()}, res, &setup)
	if rec.Correct || rec.Failed == 0 || rec.Metrics["failed_share"].Value == 0 {
		t.Errorf("record of a failing run: correct=%v failed=%d share=%v", rec.Correct, rec.Failed, rec.Metrics["failed_share"].Value)
	}
}

func TestCompareVerdicts(t *testing.T) {
	contract := &contract{EndToEnd: []contractMetric{
		{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	}}
	set := func(name string, query, ops, setup []float64) string {
		var recs []*record
		for i := range query {
			recs = append(recs, &record{Workload: "session.cold", Metrics: map[string]value{
				"query_p50_ms": {Value: query[i]}, "ops_per_s": {Value: ops[i]}, "setup_s": {Value: setup[i]},
			}})
		}
		path := filepath.Join(t.TempDir(), name)
		if err := writeJSON(path, recs); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := set("a.json", []float64{10, 10.1, 10.2, 10.1}, []float64{700, 705, 710, 700}, []float64{1, 2, 3, 4})
	b := set("b.json", []float64{12, 12.1, 12.2, 12.1}, []float64{690, 700, 705, 700}, []float64{1, 2, 3, 4})
	var out bytes.Buffer
	if err := compareFiles(&out, contract, a, b); err != nil {
		t.Fatal(err)
	}
	for metric, verdict := range map[string]string{"query_p50_ms": "WORSE", "ops_per_s": "ok", "setup_s": "unresolved"} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) {
				found = strings.HasSuffix(strings.TrimSpace(line), verdict)
			}
		}
		if !found {
			t.Errorf("%s: want verdict %s in\n%s", metric, verdict, out.String())
		}
	}
}

// Each workload runs end to end against a spawned lotusx-server at scale 1:
// every end-to-end metric comes out with samples behind it, nothing fails,
// and between them the traced runs produce every per-layer metric.
func TestWorkloadsLive(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns lotusx-server")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	contract, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := buildServer(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAll)
	layers := map[string]bool{}
	for _, w := range workloads {
		w.Scale = 1
		rec, err := runWorkload(context.Background(), runConfig{
			root: root, bin: bin, out: t.TempDir(), w: w, seed: 1,
			warmup: 200 * time.Millisecond, window: time.Second, traced: true, setups: 1,
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Metrics["failed_share"].Value != 0 {
			t.Errorf("%s: correct=%v failed=%d: %v", w.Name, rec.Correct, rec.Failed, rec.Errors)
		}
		for _, m := range contract.EndToEnd {
			if v := rec.Metrics[m.Name]; v.N == 0 || v.Value <= 0 {
				t.Errorf("%s: %s = %v with n=%d", w.Name, m.Name, v.Value, v.N)
			}
		}
		if w.Ingest {
			if v := rec.Metrics["ingest_done_p50_ms"]; v.N != ingestWrites || v.Value <= 0 {
				t.Errorf("%s: ingest_done_p50_ms = %v with n=%d", w.Name, v.Value, v.N)
			}
		}
		for name, v := range rec.Metrics {
			if v.N > 0 {
				layers[name] = true
			}
		}
		if _, err := rec.contractLine(contract); err != nil {
			t.Error(err)
		}
	}
	for _, m := range contract.PerLayer {
		if !layers[m.Name] {
			t.Errorf("no workload measured %s", m.Name)
		}
	}
}
