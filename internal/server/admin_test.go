package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/metrics"
)

const tinyXML = `<dblp>
  <article><author>Ada</author><title>Alpha</title></article>
  <article><author>Bo</author><title>Beta</title></article>
  <article><author>Cy</author><title>Gamma</title></article>
</dblp>`

// adminServer builds a server with the admin surface on and one plain
// engine dataset pre-registered.
func adminServer(t *testing.T, cfg Config) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	cfg.EnableAdmin = true
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	e, err := core.FromReader("bib", strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCatalog()
	c.Add("bib", e)
	ts := httptest.NewServer(NewCatalogConfig(c, cfg))
	t.Cleanup(ts.Close)
	return ts, cfg.Metrics
}

func do(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s: %v", method, url, err)
		}
	}
	return res.StatusCode
}

func TestAdminDatasetLifecycle(t *testing.T) {
	ts, _ := adminServer(t, Config{})

	// Create a corpus dataset split into 2 shards (sync escape hatch: the
	// async default answers 202 + a job; see jobs_test.go).
	var created statusEnvelope
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2&sync=1", tinyXML, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.Status.Dataset != "lib" || created.Status.Shards != 2 {
		t.Fatalf("create response: %+v", created)
	}

	// It serves queries, fanned out and merged, with shard attribution.
	var qr struct {
		Answers []struct {
			Shard string `json:"shard"`
			Path  string `json:"path"`
		} `json:"answers"`
		Shards int `json:"shards"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/query?dataset=lib", `{"query":"//article/title","k":10}`, &qr); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if len(qr.Answers) != 3 || qr.Shards != 2 {
		t.Fatalf("query: %d answers over %d shards, want 3 over 2", len(qr.Answers), qr.Shards)
	}
	for _, a := range qr.Answers {
		if a.Shard == "" {
			t.Fatalf("corpus answer without shard attribution: %+v", a)
		}
	}

	// Stats answers the aggregated corpus shape.
	var info struct {
		Kind   string `json:"kind"`
		Shards int    `json:"shards"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/stats?dataset=lib", &info); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if info.Kind != "corpus" || info.Shards != 2 {
		t.Fatalf("stats: %+v", info)
	}

	// Add a third shard, then drop it.
	var st statusEnvelope
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib/shards/extra?sync=1", "<dblp><article><title>Delta</title></article></dblp>", &st); code != http.StatusCreated {
		t.Fatalf("shard add: status %d", code)
	}
	if st.Status.Shards != 3 {
		t.Fatalf("after shard add: %d shards", st.Status.Shards)
	}
	added := st.Status.Seq
	if code := do(t, "DELETE", ts.URL+"/api/v1/datasets/lib/shards/extra", "", &st); code != http.StatusOK {
		t.Fatalf("shard delete: status %d", code)
	}
	// Each publish bumps the snapshot seq.
	if st.Status.Shards != 2 || st.Status.Seq <= added {
		t.Fatalf("after shard delete: %d shards at seq %d (add was seq %d)", st.Status.Shards, st.Status.Seq, added)
	}
	if code := do(t, "DELETE", ts.URL+"/api/v1/datasets/lib/shards/extra", "", nil); code != http.StatusNotFound {
		t.Fatalf("double shard delete: status %d", code)
	}

	// Dataset listing includes it; deleting removes it.
	var ds struct {
		Datasets []string `json:"datasets"`
	}
	getJSON(t, ts.URL+"/api/v1/datasets", &ds)
	if len(ds.Datasets) != 2 {
		t.Fatalf("datasets: %v", ds.Datasets)
	}
	if code := do(t, "DELETE", ts.URL+"/api/v1/datasets/lib", "", nil); code != http.StatusOK {
		t.Fatalf("dataset delete: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/stats?dataset=lib", &errEnvelope{}); code != http.StatusNotFound {
		t.Fatalf("stats after delete: status %d", code)
	}
}

func TestAdminDisabledByDefault(t *testing.T) {
	ts := testServer(t)
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib", tinyXML, nil); code == http.StatusCreated {
		t.Fatal("admin route reachable without EnableAdmin")
	}
}

func TestAdminShardOpsNeedCorpus(t *testing.T) {
	ts, _ := adminServer(t, Config{})
	var env errEnvelope
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/bib/shards/x", tinyXML, &env); code != http.StatusNotFound {
		t.Fatalf("shard add on engine dataset: status %d", code)
	}
	if !strings.Contains(env.Error.Message, "not a corpus") {
		t.Fatalf("error message: %q", env.Error.Message)
	}
}

func TestAdminBadInputs(t *testing.T) {
	ts, _ := adminServer(t, Config{})
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=0", tinyXML, nil); code != http.StatusBadRequest {
		t.Fatalf("shards=0: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?sync=1", "<not-xml", nil); code != http.StatusBadRequest {
		t.Fatalf("bad xml: status %d", code)
	}
	if code := do(t, "DELETE", ts.URL+"/api/v1/datasets/missing", "", nil); code != http.StatusNotFound {
		t.Fatalf("delete missing: status %d", code)
	}
}

// TestCorpusNodeAndGuideNeedShard: per-document views address a corpus
// shard with ?shard=.
func TestCorpusNodeAndGuideNeedShard(t *testing.T) {
	ts, _ := adminServer(t, Config{})
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2&sync=1", tinyXML, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	var env errEnvelope
	if code := getJSON(t, ts.URL+"/api/v1/guide?dataset=lib", &env); code != http.StatusNotFound {
		t.Fatalf("guide without shard: status %d", code)
	}
	if !strings.Contains(env.Error.Message, "shard") {
		t.Fatalf("error message: %q", env.Error.Message)
	}
	var created statusEnvelope
	// Re-create to learn shard names (idempotent replace).
	do(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2&sync=1", tinyXML, &created)
	var guide struct {
		Tag string `json:"tag"`
	}
	url := fmt.Sprintf("%s/api/v1/guide?dataset=lib&shard=%s", ts.URL, created.Status.Names[0])
	if code := getJSON(t, url, &guide); code != http.StatusOK || guide.Tag != "dblp" {
		t.Fatalf("guide with shard: %+v", guide)
	}
}

// TestMetricsExposeCorpora is the satellite check: corpus gauges and the
// fan-out/merge histograms appear in GET /api/v1/metrics after corpus
// traffic.
func TestMetricsExposeCorpora(t *testing.T) {
	reg := metrics.New()
	ts, _ := adminServer(t, Config{Metrics: reg})
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2&sync=1", tinyXML, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	if code := postJSON(t, ts.URL+"/api/v1/query?dataset=lib", `{"query":"//article/title","k":10}`, &struct{}{}); code != http.StatusOK {
		t.Fatal("query failed")
	}

	var snap struct {
		Corpora map[string]struct {
			Shards   int64 `json:"shards"`
			Swaps    int64 `json:"swaps"`
			Searches int64 `json:"searches"`
			Fanout   struct {
				Count int64 `json:"count"`
			} `json:"fanout"`
			Merge struct {
				Count int64 `json:"count"`
			} `json:"merge"`
		} `json:"corpora"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/metrics", &snap); code != http.StatusOK {
		t.Fatal("metrics failed")
	}
	cs, ok := snap.Corpora["lib"]
	if !ok {
		t.Fatalf("metrics missing corpus lib: %+v", snap.Corpora)
	}
	if cs.Shards != 2 || cs.Swaps < 1 || cs.Searches != 1 || cs.Fanout.Count != 1 || cs.Merge.Count != 1 {
		t.Fatalf("corpus metrics: %+v", cs)
	}
}

// TestDatasetDeleteDropsMetrics: deleting a dataset drops its corpus from
// the metrics registry — no frozen corpus="tmp" series stays in either view,
// the corpus itself becomes collectable, and re-creating the name starts
// fresh series.
func TestDatasetDeleteDropsMetrics(t *testing.T) {
	ts, _ := adminServer(t, Config{})
	create := func() {
		t.Helper()
		if code := do(t, "POST", ts.URL+"/api/v1/datasets/tmp?shards=2&sync=1", tinyXML, nil); code != http.StatusCreated {
			t.Fatalf("create: status %d", code)
		}
		if code := postJSON(t, ts.URL+"/api/v1/query?dataset=tmp", `{"query":"//article/title","k":10}`, &struct{}{}); code != http.StatusOK {
			t.Fatalf("query: status %d", code)
		}
	}
	create()
	b, err := ts.Config.Handler.(*Server).catalog.GetBackend("tmp")
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{})
	runtime.SetFinalizer(b.(*corpus.Corpus), func(*corpus.Corpus) { close(freed) })
	b = nil
	if code := do(t, "DELETE", ts.URL+"/api/v1/datasets/tmp", "", nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}

	if body := scrape(t, ts); strings.Contains(body, `corpus="tmp"`) {
		t.Error(`/metrics still carries corpus="tmp" series after the delete`)
	}
	var snap metrics.Snapshot
	getJSON(t, ts.URL+"/api/v1/metrics", &snap)
	if _, ok := snap.Corpora["tmp"]; ok {
		t.Error("/api/v1/metrics still carries corpora.tmp after the delete")
	}
	collected := false
	for i := 0; i < 100 && !collected; i++ {
		runtime.GC()
		select {
		case <-freed:
			collected = true
		case <-time.After(10 * time.Millisecond):
		}
	}
	if !collected {
		t.Error("the deleted corpus is still reachable: its finalizer never ran")
	}

	create()
	var again metrics.Snapshot
	getJSON(t, ts.URL+"/api/v1/metrics", &again)
	if cs := again.Corpora["tmp"]; cs.Swaps != 1 || cs.Searches != 1 {
		t.Fatalf("re-created tmp continues the deleted dataset's series: swaps=%d searches=%d, want 1 and 1", cs.Swaps, cs.Searches)
	}
}

// TestAdminRejectsTraversalNames: ServeMux unescapes wildcard segments, so
// a %2F-smuggled name like "../evil" reaches the handler — it must be
// rejected before it is joined into CorpusDir and used for file writes.
func TestAdminRejectsTraversalNames(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "corpora")
	ts, _ := adminServer(t, Config{CorpusDir: dir})
	for _, bad := range []string{
		"..%2Fevil",              // one level up: DIR/../evil
		"..%2F..%2Fevil",         // two levels up
		"%2E%2E%2Fevil",          // fully escaped ../
		"%2E%2E",                 // escaped bare ".." (literal ".." never survives ServeMux path cleaning)
		".hidden",                // leading dot
		"a%20b",                  // whitespace
		"a%5Cb",                  // backslash
		"with%2Fslash",           // embedded separator
		strings.Repeat("x", 129), // over-long
	} {
		var env errEnvelope
		if code := do(t, "POST", ts.URL+"/api/v1/datasets/"+bad, tinyXML, &env); code != http.StatusBadRequest {
			t.Errorf("create %q: status %d, want 400 (%+v)", bad, code, env)
		} else if !strings.Contains(env.Error.Message, "dataset name") {
			t.Errorf("create %q rejected for the wrong reason: %q", bad, env.Error.Message)
		}
	}
	// Nothing may have been written outside (or inside) the corpus root.
	if _, err := os.Stat(filepath.Join(root, "evil")); !os.IsNotExist(err) {
		t.Fatal("traversal name escaped the corpus root")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("rejected creates still wrote under the corpus root")
	}

	// The shard route applies the same validation.
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/bib/shards/..%2Fx", tinyXML, nil); code != http.StatusBadRequest {
		t.Error("shard add with traversal name not rejected")
	}
}

// TestAdminRecreateReplacesDataset: re-POSTing a live corpus-backed name
// must flow through the existing corpus object — the sequence keeps
// climbing (no second corpus racing the same directory) and the old shards
// are gone, so answers never double up.
func TestAdminRecreateReplacesDataset(t *testing.T) {
	dir := t.TempDir()
	ts, _ := adminServer(t, Config{CorpusDir: dir})
	var first, second statusEnvelope
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2&sync=1", tinyXML, &first); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?sync=1", tinyXML, &second); code != http.StatusCreated {
		t.Fatalf("re-create: status %d", code)
	}
	if second.Status.Shards != 1 {
		t.Fatalf("re-create left %d shards, want 1", second.Status.Shards)
	}
	if second.Status.Seq != first.Status.Seq+1 {
		t.Fatalf("re-create seq %d after %d — a fresh corpus raced the directory", second.Status.Seq, first.Status.Seq)
	}
	var qr struct {
		Answers []struct{} `json:"answers"`
	}
	if code := postJSON(t, ts.URL+"/api/v1/query?dataset=lib", `{"query":"//article/title","k":100}`, &qr); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if len(qr.Answers) != 3 {
		t.Fatalf("after re-create: %d answers, want 3 (old shards still answering?)", len(qr.Answers))
	}
	// The persisted directory reflects only the latest generation.
	re, err := corpus.Open(filepath.Join(dir, "lib"), corpus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Snapshot().Len() != 1 || re.Seq() != second.Status.Seq {
		t.Fatalf("reopened: %d shards seq %d, want 1 shard seq %d", re.Snapshot().Len(), re.Seq(), second.Status.Seq)
	}
}

// TestAdminConcurrentCreates: parallel creates of the same persisted
// dataset must not corrupt its directory (run under -race in CI).
func TestAdminConcurrentCreates(t *testing.T) {
	dir := t.TempDir()
	ts, _ := adminServer(t, Config{CorpusDir: dir})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, err := http.NewRequest("POST", ts.URL+"/api/v1/datasets/lib?shards=2&sync=1", strings.NewReader(tinyXML))
			if err != nil {
				t.Error(err)
				return
			}
			res, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			res.Body.Close()
			if res.StatusCode != http.StatusCreated {
				t.Errorf("concurrent create: status %d", res.StatusCode)
			}
		}()
	}
	wg.Wait()
	re, err := corpus.Open(filepath.Join(dir, "lib"), corpus.Config{})
	if err != nil {
		t.Fatalf("corpus did not survive concurrent creates: %v", err)
	}
	if re.Snapshot().Len() != 2 {
		t.Fatalf("reopened corpus has %d shards, want 2", re.Snapshot().Len())
	}
}

// TestAdminDeletePurgesPersistedDir: DELETE must remove the corpus's
// on-disk directory, or the next restart's reload resurrects the dataset.
func TestAdminDeletePurgesPersistedDir(t *testing.T) {
	dir := t.TempDir()
	ts, _ := adminServer(t, Config{CorpusDir: dir})
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2&sync=1", tinyXML, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	sub := filepath.Join(dir, "lib")
	if _, err := os.Stat(sub); err != nil {
		t.Fatalf("corpus dir not persisted: %v", err)
	}
	if code := do(t, "DELETE", ts.URL+"/api/v1/datasets/lib", "", nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if _, err := os.Stat(sub); !os.IsNotExist(err) {
		t.Fatalf("corpus dir survived the delete (err=%v) — it would reload on restart", err)
	}
	// An engine-backed dataset deletes cleanly too (nothing on disk).
	if code := do(t, "DELETE", ts.URL+"/api/v1/datasets/bib", "", nil); code != http.StatusOK {
		t.Fatal("engine dataset delete failed")
	}
}

// TestAdminPersistedCorpus: with CorpusDir set, admin-created corpora
// reopen from disk.
func TestAdminPersistedCorpus(t *testing.T) {
	dir := t.TempDir()
	ts, _ := adminServer(t, Config{CorpusDir: dir})
	if code := do(t, "POST", ts.URL+"/api/v1/datasets/lib?shards=2&sync=1", tinyXML, nil); code != http.StatusCreated {
		t.Fatal("create failed")
	}
	re, err := corpus.Open(dir+"/lib", corpus.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Snapshot().Len() != 2 {
		t.Fatalf("reopened corpus has %d shards", re.Snapshot().Len())
	}
}
