package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lotusx/internal/core"
)

const bibXML = `<dblp>
  <article key="a1">
    <author>Jiaheng Lu</author>
    <title>Holistic Twig Joins</title>
    <year>2005</year>
  </article>
  <article key="a2">
    <author>Chunbin Lin</author>
    <title>LotusX</title>
    <year>2012</year>
  </article>
</dblp>`

// errEnvelope mirrors the uniform v1 error body.
type errEnvelope struct {
	Error struct {
		Code      string `json:"code"`
		Message   string `json:"message"`
		RequestID string `json:"requestId"`
	} `json:"error"`
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	e, err := core.FromReader("bib", strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(e))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return res.StatusCode
}

func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	res, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return res.StatusCode
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	var stats map[string]any
	if code := getJSON(t, ts.URL+"/api/v1/stats", &stats); code != 200 {
		t.Fatalf("status %d", code)
	}
	if stats["Document"] != "bib" {
		t.Fatalf("stats = %v", stats)
	}
}

func TestCompleteTagEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp struct {
		Candidates []struct {
			Text  string
			Count int64
		} `json:"candidates"`
	}
	url := ts.URL + "/api/v1/complete?kind=tag&path=" + escape("//article") + "&axis=child&prefix=a&k=5"
	if code := getJSON(t, url, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0].Text != "author" {
		t.Fatalf("candidates = %+v", resp.Candidates)
	}
}

func TestCompleteRootEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp struct {
		Candidates []struct{ Text string } `json:"candidates"`
	}
	url := ts.URL + "/api/v1/complete?kind=tag&axis=descendant&prefix=art"
	if code := getJSON(t, url, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0].Text != "article" {
		t.Fatalf("candidates = %+v", resp.Candidates)
	}
}

func TestCompleteValueEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp struct {
		Candidates []struct{ Text string } `json:"candidates"`
	}
	url := ts.URL + "/api/v1/complete?kind=value&path=" + escape("//article/author") + "&prefix=ji"
	if code := getJSON(t, url, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Candidates) != 1 || resp.Candidates[0].Text != "jiaheng lu" {
		t.Fatalf("candidates = %+v", resp.Candidates)
	}
}

func TestCompleteErrors(t *testing.T) {
	ts := testServer(t)
	var e errEnvelope
	if code := getJSON(t, ts.URL+"/api/v1/complete?kind=value", &e); code != 400 {
		t.Errorf("value without path: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/complete?kind=bogus", &e); code != 400 {
		t.Errorf("bad kind: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/complete?path=%5B%5B", &e); code != 400 {
		t.Errorf("bad path: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/complete?k=-1", &e); code != 400 {
		t.Errorf("bad k: status %d", code)
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp struct {
		Answers []struct {
			Path    string  `json:"path"`
			Snippet string  `json:"snippet"`
			Score   float64 `json:"score"`
		} `json:"answers"`
		Exact  int    `json:"exact"`
		XQuery string `json:"xquery"`
	}
	code := postJSON(t, ts.URL+"/api/v1/query",
		`{"query": "//article[author = \"Jiaheng Lu\"]/title", "k": 5}`, &resp)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Answers) != 1 || resp.Exact != 1 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Answers[0].Path != "/dblp/article/title" {
		t.Errorf("path = %q", resp.Answers[0].Path)
	}
	if !strings.Contains(resp.Answers[0].Snippet, "Holistic") {
		t.Errorf("snippet = %q", resp.Answers[0].Snippet)
	}
	if !strings.Contains(resp.XQuery, "for $v0") {
		t.Errorf("xquery = %q", resp.XQuery)
	}
}

func TestQueryEndpointRewrite(t *testing.T) {
	ts := testServer(t)
	var resp struct {
		Answers []struct {
			Rewrite string  `json:"rewrite"`
			Penalty float64 `json:"penalty"`
		} `json:"answers"`
		Exact    int `json:"exact"`
		Rewrites int `json:"rewritesTried"`
	}
	code := postJSON(t, ts.URL+"/api/v1/query",
		`{"query": "//article/autor", "k": 3, "rewrite": true}`, &resp)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Exact != 0 || len(resp.Answers) == 0 {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Answers[0].Rewrite == "" || resp.Answers[0].Penalty <= 0 {
		t.Errorf("rewrite annotation missing: %+v", resp.Answers[0])
	}
}

func TestQueryEndpointErrors(t *testing.T) {
	ts := testServer(t)
	var e map[string]any
	if code := postJSON(t, ts.URL+"/api/v1/query", `{"query": "]bad["}`, &e); code != 400 {
		t.Errorf("bad query: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/v1/query", `not json`, &e); code != 400 {
		t.Errorf("bad body: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/api/v1/query", `{"query": "//a", "algorithm": "bogus"}`, &e); code != 400 {
		t.Errorf("bad algorithm: status %d", code)
	}
}

func TestNodeEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp struct {
		Tag  string `json:"tag"`
		Path string `json:"path"`
		XML  string `json:"xml"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/node/0", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Tag != "dblp" || resp.Path != "/dblp" {
		t.Fatalf("resp = %+v", resp)
	}
	var e errEnvelope
	if code := getJSON(t, ts.URL+"/api/v1/node/99999", &e); code != 404 {
		t.Errorf("overflow id: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/node/xyz", &e); code != 404 {
		t.Errorf("bad id: status %d", code)
	}
}

func TestIndexPage(t *testing.T) {
	ts := testServer(t)
	res, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	buf := make([]byte, 1024)
	n, _ := res.Body.Read(buf)
	if res.StatusCode != 200 || !strings.Contains(string(buf[:n]), "LotusX") {
		t.Fatalf("index page broken: %d %q", res.StatusCode, buf[:n])
	}
	// Unknown paths 404.
	res2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	res2.Body.Close()
	if res2.StatusCode != 404 {
		t.Errorf("unknown path: status %d", res2.StatusCode)
	}
}

func escape(s string) string {
	r := strings.NewReplacer("/", "%2F", "[", "%5B", "]", "%5D", `"`, "%22", " ", "%20", "=", "%3D")
	return r.Replace(s)
}

func TestGuideEndpoint(t *testing.T) {
	ts := testServer(t)
	var root struct {
		Tag      string `json:"tag"`
		Path     string `json:"path"`
		Count    int    `json:"count"`
		Children []struct {
			Tag    string   `json:"tag"`
			Count  int      `json:"count"`
			Values []string `json:"values"`
		} `json:"children"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/guide?values=2", &root); code != 200 {
		t.Fatalf("status %d", code)
	}
	if root.Tag != "dblp" || root.Path != "/dblp" || root.Count != 1 {
		t.Fatalf("root = %+v", root)
	}
	if len(root.Children) != 1 || root.Children[0].Tag != "article" || root.Children[0].Count != 2 {
		t.Fatalf("children = %+v", root.Children)
	}
	// Without values= the sample is omitted.
	if code := getJSON(t, ts.URL+"/api/v1/guide", &root); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(root.Children[0].Values) != 0 {
		t.Fatalf("values should be omitted: %+v", root.Children[0])
	}
}

func TestMultiDatasetCatalog(t *testing.T) {
	e1, err := core.FromReader("bib", strings.NewReader(bibXML))
	if err != nil {
		t.Fatal(err)
	}
	e2, err := core.FromReader("tiny", strings.NewReader("<shop><item>anvil</item></shop>"))
	if err != nil {
		t.Fatal(err)
	}
	c := core.NewCatalog()
	c.Add("bib", e1)
	c.Add("tiny", e2)
	ts := httptest.NewServer(NewCatalog(c))
	t.Cleanup(ts.Close)

	var list struct {
		Datasets []string `json:"datasets"`
	}
	if code := getJSON(t, ts.URL+"/api/v1/datasets", &list); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(list.Datasets) != 2 || list.Datasets[0] != "bib" {
		t.Fatalf("datasets = %v", list.Datasets)
	}

	var stats map[string]any
	if code := getJSON(t, ts.URL+"/api/v1/stats?dataset=tiny", &stats); code != 200 {
		t.Fatalf("status %d", code)
	}
	if stats["Document"] != "tiny" {
		t.Fatalf("stats = %v", stats)
	}
	// Default is the first added.
	getJSON(t, ts.URL+"/api/v1/stats", &stats)
	if stats["Document"] != "bib" {
		t.Fatalf("default stats = %v", stats)
	}
	// Unknown dataset is a 404 on every endpoint.
	var e errEnvelope
	if code := getJSON(t, ts.URL+"/api/v1/stats?dataset=nope", &e); code != 404 {
		t.Errorf("unknown dataset: status %d", code)
	}
	if e.Error.Code != "not_found" {
		t.Errorf("unknown dataset code = %q", e.Error.Code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/guide?dataset=nope", &e); code != 404 {
		t.Errorf("unknown dataset guide: status %d", code)
	}

	// Queries route to the right dataset.
	var resp struct {
		Answers []struct {
			Path string `json:"path"`
		} `json:"answers"`
	}
	res, err := http.Post(ts.URL+"/api/v1/query?dataset=tiny", "application/json",
		strings.NewReader(`{"query": "//item", "k": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Path != "/shop/item" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestExplainEndpoint(t *testing.T) {
	ts := testServer(t)
	var resp struct {
		Tag         string `json:"tag"`
		Occurrences []struct {
			Path  string
			Count int
		} `json:"occurrences"`
	}
	url := ts.URL + "/api/v1/explain?path=" + escape("//article") + "&axis=child&tag=author"
	if code := getJSON(t, url, &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Occurrences) != 1 || resp.Occurrences[0].Path != "/dblp/article/author" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Occurrences[0].Count != 2 {
		t.Fatalf("count = %d, want 2", resp.Occurrences[0].Count)
	}
	// Root-level explain without a path.
	if code := getJSON(t, ts.URL+"/api/v1/explain?axis=descendant&tag=year", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(resp.Occurrences) != 1 {
		t.Fatalf("root explain = %+v", resp)
	}
	var e map[string]any
	if code := getJSON(t, ts.URL+"/api/v1/explain", &e); code != 400 {
		t.Errorf("missing tag: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/explain?tag=a&max=9999", &e); code != 400 {
		t.Errorf("bad max: status %d", code)
	}
	if code := getJSON(t, ts.URL+"/api/v1/explain?tag=a&path=%5B", &e); code != 400 {
		t.Errorf("bad path: status %d", code)
	}
}

func TestQueryEndpointHighlights(t *testing.T) {
	ts := testServer(t)
	var resp struct {
		Answers []struct {
			Highlights []struct {
				Tag   string `json:"tag"`
				Value string `json:"value"`
				Spans []struct {
					Start int `json:"start"`
					End   int `json:"end"`
				} `json:"spans"`
			} `json:"highlights"`
		} `json:"answers"`
	}
	code := postJSON(t, ts.URL+"/api/v1/query",
		`{"query": "//article[title contains \"twig\"]", "k": 5}`, &resp)
	if code != 200 || len(resp.Answers) != 1 {
		t.Fatalf("status %d answers %d", code, len(resp.Answers))
	}
	hs := resp.Answers[0].Highlights
	if len(hs) != 1 || hs[0].Tag != "title" || len(hs[0].Spans) != 1 {
		t.Fatalf("highlights = %+v", hs)
	}
	if got := hs[0].Value[hs[0].Spans[0].Start:hs[0].Spans[0].End]; got != "Twig" {
		t.Fatalf("span text = %q", got)
	}
}
