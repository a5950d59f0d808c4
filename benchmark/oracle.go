package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"time"

	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/dataguide"
	"lotusx/internal/dataset"
	"lotusx/internal/doc"
	"lotusx/internal/index"
	"lotusx/internal/join"
	"lotusx/internal/twig"
)

// The oracle: an in-process twin of what the server serves, built from the
// same generator and seed, on the same topology (one engine per dataset, or
// a 4-shard corpus).  Every distinct request of the stream is evaluated on it
// before the server starts, and every HTTP response is compared with it.

// topology is the in-process twin of a workload's server.
type topology struct {
	// backends are what the server serves, by dataset name.
	backends map[string]core.Backend
	// engines are whole-document engines by dataset name — the backends
	// themselves when the workload is unsharded, extra builds for the traced
	// replay otherwise (nil when not needed).
	engines map[string]*core.Engine
	// Build times and sizes, summed over the datasets (traced runs only).
	parseMS, indexMS, guideMS, residentMB float64
}

// buildTopology generates and indexes the workload's datasets.  A traced run
// also times each build layer through its exported constructor and keeps a
// whole-document engine per dataset.
func buildTopology(w workload, traced bool) (*topology, error) {
	t := &topology{backends: map[string]core.Backend{}, engines: map[string]*core.Engine{}}
	for kind, name := range w.datasets() {
		var xml bytes.Buffer
		if err := dataset.Generate(dataset.Kind(kind), w.Scale, datasetSeed, &xml); err != nil {
			return nil, err
		}
		start := time.Now()
		d, err := doc.FromReader(fmt.Sprintf("%s-s%d", kind, w.Scale), &xml)
		if err != nil {
			return nil, err
		}
		t.parseMS += msSince(start)
		if traced {
			start = time.Now()
			ix := index.BuildWith(d, index.BuildOptions{})
			t.indexMS += msSince(start)
			start = time.Now()
			dataguide.Build(d).Warm()
			t.guideMS += msSince(start)
			t.residentMB += float64(ix.ResidentBytes()) / (1 << 20)
		}
		if w.Shards == 1 || traced {
			t.engines[name] = core.FromDocument(d)
		}
		if w.Shards == 1 {
			t.backends[name] = t.engines[name]
			continue
		}
		c, err := corpus.FromDocument(name, d, w.Shards, corpus.Config{})
		if err != nil {
			return nil, err
		}
		t.backends[name] = c
	}
	return t, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// expected is the oracle's answer to one distinct request: the total and the
// page's ordered rows (path and snippet of an answer, text and count of a
// completion candidate).
type expected struct {
	Total int
	Rows  []string
}

// The two sides of a comparison render their rows with these.
func answerRow(path, snippet string) string { return path + "\x00" + snippet }

func candidateRow(text string, count int64) string { return fmt.Sprintf("%s\x00%d", text, count) }

// searchOptions are the options the server derives from a session's query
// body.
func searchOptions(r *request) core.SearchOptions {
	return core.SearchOptions{K: pageK, Offset: r.Offset, Algorithm: join.Auto, SnippetMax: 400}
}

// completeArgs decodes a completion request the way the server's handler
// does: the path's last node is the focus, an empty path means a new root.
func completeArgs(r *request) (q *twig.Query, focus int, axis twig.Axis, err error) {
	focus = complete.NewRoot
	if r.Path != "" {
		if q, err = twig.Parse(r.Path); err != nil {
			return nil, 0, 0, err
		}
		focus = q.OutputNode().ID
	}
	axis = twig.Child
	if r.Axis == "descendant" {
		axis = twig.Descendant
	}
	return q, focus, axis, nil
}

// runComplete evaluates a completion request on a backend.
func runComplete(ctx context.Context, b core.Backend, r *request) ([]complete.Candidate, error) {
	q, focus, axis, err := completeArgs(r)
	if err != nil {
		return nil, err
	}
	if r.Kind == "value" {
		return b.CompleteValues(ctx, q, focus, r.Prefix, completeK)
	}
	return b.CompleteTags(ctx, q, focus, axis, r.Prefix, completeK)
}

// perform runs one request on a backend, as the server's handler would.
func perform(ctx context.Context, b core.Backend, r *request) (*core.HitResult, []complete.Candidate, error) {
	if r.Op == "complete" {
		cands, err := runComplete(ctx, b, r)
		return nil, cands, err
	}
	q, err := twig.Parse(r.Query)
	if err != nil {
		return nil, nil, err
	}
	res, err := b.SearchHits(ctx, q, searchOptions(r))
	return res, nil, err
}

// evaluate answers one request in-process in the form responses are compared
// in.
func evaluate(ctx context.Context, b core.Backend, r *request) (expected, error) {
	var e expected
	res, cands, err := perform(ctx, b, r)
	if err != nil {
		return e, err
	}
	for _, c := range cands {
		e.Rows = append(e.Rows, candidateRow(c.Text, c.Count))
	}
	if res != nil {
		e.Total = res.Total
		for _, h := range res.Hits {
			e.Rows = append(e.Rows, answerRow(h.Path, h.Snippet))
		}
	}
	return e, nil
}

// ingestDocs generates the writer's documents — one freshly seeded XMark
// scale-1 document per write — and counts their nodes.
func ingestDocs(seed int64, n int) (docs [][]byte, nodes int, err error) {
	for i := 0; i < n; i++ {
		var xml bytes.Buffer
		if err := dataset.Generate(dataset.XMark, 1, seed*1000+int64(i), &xml); err != nil {
			return nil, 0, err
		}
		d, err := doc.FromReader("delta", bytes.NewReader(xml.Bytes()))
		if err != nil {
			return nil, 0, err
		}
		docs = append(docs, xml.Bytes())
		nodes += d.Len()
	}
	return docs, nodes, nil
}

// oracle holds the expected answer of every distinct request of a stream.
type oracle struct {
	want map[string]expected
	// atLeast relaxes the comparison for a corpus that grows during the run:
	// a total or a candidate count may only be at least the base corpus's.
	atLeast bool
}

func buildOracle(t *topology, stream []session, atLeast bool) (*oracle, error) {
	o := &oracle{want: map[string]expected{}, atLeast: atLeast}
	ctx := context.Background()
	for _, r := range distinct(stream) {
		e, err := evaluate(ctx, t.backends[r.Dataset], r)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", r.key(), err)
		}
		o.want[r.key()] = e
	}
	return o, nil
}

// checker compares response bodies with the oracle for one client.  Decoding
// every body would cost the load generator more CPU than a cached answer
// costs the server, so a body that has been decoded and found right is
// remembered by hash (without its elapsedMs, the one field that varies) and
// an identical body is accepted without decoding again.
type checker struct {
	o    *oracle
	seed maphash.Seed
	ok   map[string]map[uint64]bool
}

func newChecker(o *oracle) *checker {
	return &checker{o: o, seed: maphash.MakeSeed(), ok: map[string]map[uint64]bool{}}
}

var elapsedField = []byte(`"elapsedMs":`)

func (c *checker) hash(body []byte) uint64 {
	var h maphash.Hash
	h.SetSeed(c.seed)
	if i := bytes.Index(body, elapsedField); i >= 0 {
		h.Write(body[:i])
		body = body[i+len(elapsedField):]
		if j := bytes.IndexAny(body, ",}"); j >= 0 {
			body = body[j:]
		}
	}
	h.Write(body)
	return h.Sum64()
}

// check returns nil when body is the right answer to r.
func (c *checker) check(r *request, body []byte) error {
	key := r.key()
	var sum uint64
	if !c.o.atLeast {
		sum = c.hash(body)
		if c.ok[key][sum] {
			return nil
		}
	}
	want, known := c.o.want[key]
	if !known {
		return fmt.Errorf("no expected answer for %s", key)
	}
	got, err := decode(r, body)
	if err != nil {
		return err
	}
	if c.o.atLeast {
		if got.Total < want.Total || len(got.Rows) < len(want.Rows) {
			return fmt.Errorf("%s: total %d, %d rows; the base corpus alone has total %d, %d rows",
				key, got.Total, len(got.Rows), want.Total, len(want.Rows))
		}
		return nil
	}
	if got.Total != want.Total || len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%s: total %d, %d rows; want total %d, %d rows",
			key, got.Total, len(got.Rows), want.Total, len(want.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i] != want.Rows[i] {
			return fmt.Errorf("%s: row %d is %q, want %q", key, i, got.Rows[i], want.Rows[i])
		}
	}
	if c.ok[key] == nil {
		c.ok[key] = map[uint64]bool{}
	}
	c.ok[key][sum] = true
	return nil
}

// decode reads the compared part of a response body.
func decode(r *request, body []byte) (expected, error) {
	var e expected
	if r.Op == "complete" {
		var resp struct {
			Candidates []struct {
				Text  string
				Count int64
			} `json:"candidates"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return e, fmt.Errorf("%s: %w", r.key(), err)
		}
		for _, c := range resp.Candidates {
			e.Rows = append(e.Rows, candidateRow(c.Text, c.Count))
		}
		return e, nil
	}
	var resp struct {
		Total   int `json:"total"`
		Answers []struct {
			Path    string `json:"path"`
			Snippet string `json:"snippet"`
		} `json:"answers"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return e, fmt.Errorf("%s: %w", r.key(), err)
	}
	e.Total = resp.Total
	for _, a := range resp.Answers {
		e.Rows = append(e.Rows, answerRow(a.Path, a.Snippet))
	}
	return e, nil
}
