// Package remote lets one corpus span machines: it implements
// corpus.ShardBackend over HTTP against a lotusx-server shard server (one
// started with -slice i/n), speaking the same v1 JSON contract the public
// API serves.  A router process builds one Shard per logical shard — each
// backed by R replica Clients — and hands them to corpus.NewRemote;
// everything above the ShardBackend seam (degrade/failfast policy,
// per-shard circuit breakers, time budgets with one transparent retry,
// partial-result envelopes) applies to remote shards exactly as it does to
// local ones.
//
// Within a Shard, replicas are raced, not pooled: searches go to a
// round-robin primary, a hedge request fires on the next replica once the
// primary outlives a p95-derived delay, an errored replica fails over to the
// next immediately, and the first success cancels the losers.  Completion
// and explain calls — cheap and latency-tolerant — fail over sequentially
// instead of hedging.
package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/faults"
	"lotusx/internal/httpmw"
	"lotusx/internal/metrics"
	"lotusx/internal/obs"
	"lotusx/internal/twig"
)

// Fault injection sites of the network client, keyed by replica name.
const (
	// FaultRPC fires before a request leaves the client: an injected error
	// simulates a connection failure, injected latency a slow network.
	FaultRPC = "remote/rpc"
	// FaultBody wraps response bodies: an injected ShortRead truncates the
	// stream mid-payload, the shape of a connection dying between headers
	// and body.
	FaultBody = "remote/body"
)

// Server-side validation bounds the client must stay within (see
// internal/server): the per-request k cap, the explain max cap and the
// snippetMax cap.
const (
	maxWireK       = 1000
	maxWireMax     = 100
	maxWireSnippet = 1 << 16
)

// ClientConfig configures one replica endpoint.
type ClientConfig struct {
	// BaseURL is the replica's root, e.g. "http://10.0.0.7:8080".
	BaseURL string
	// Dataset is the remote dataset name passed as ?dataset=; "" uses the
	// replica's default dataset.
	Dataset string
	// Name labels the replica in metrics, fault keys, and errors; defaults
	// to the BaseURL's host.
	Name string
	// MaxConns bounds the connection pool to this replica (idle and total);
	// 0 means 32.
	MaxConns int
	// Transport overrides the HTTP transport (tests); nil builds a bounded
	// one from MaxConns.
	Transport http.RoundTripper
	// Faults arms the client's injection sites; nil never fires.
	Faults *faults.Registry
	// Metrics receives per-replica RPC latency observations; nil discards.
	Metrics *metrics.RemoteMetrics
}

// Client speaks the v1 API to one replica endpoint.  It is safe for
// concurrent use.
type Client struct {
	name    string
	base    string
	dataset string
	hc      *http.Client
	faults  *faults.Registry
	met     *metrics.RemoteMetrics
}

// NewClient validates the endpoint and builds a client with a bounded
// connection pool.  The client never sets its own timeout: the per-attempt
// context (the corpus's per-shard budget) governs every request.
func NewClient(cfg ClientConfig) (*Client, error) {
	u, err := url.Parse(cfg.BaseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("remote: bad base URL %q (want scheme://host[:port])", cfg.BaseURL)
	}
	name := cfg.Name
	if name == "" {
		name = u.Host
	}
	maxConns := cfg.MaxConns
	if maxConns <= 0 {
		maxConns = 32
	}
	tr := cfg.Transport
	if tr == nil {
		tr = &http.Transport{
			MaxIdleConns:        maxConns,
			MaxIdleConnsPerHost: maxConns,
			MaxConnsPerHost:     maxConns,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	return &Client{
		name:    name,
		base:    u.Scheme + "://" + u.Host + strings.TrimRight(u.Path, "/"),
		dataset: cfg.Dataset,
		hc:      &http.Client{Transport: tr},
		faults:  cfg.Faults,
		met:     cfg.Metrics,
	}, nil
}

// Name returns the replica's label.
func (c *Client) Name() string { return c.name }

// SearchRequest is the wire form of POST /api/v1/query — the subset of the
// server's queryRequest a router forwards.
type SearchRequest struct {
	Query      string `json:"query"`
	K          int    `json:"k"`
	Offset     int    `json:"offset"`
	Rewrite    bool   `json:"rewrite"`
	Algorithm  string `json:"algorithm,omitempty"`
	SnippetMax int    `json:"snippetMax,omitempty"`
}

// Answer is one wire answer of a shard server's query response.
type Answer struct {
	Node       int32            `json:"node"`
	Path       string           `json:"path"`
	Score      float64          `json:"score"`
	Snippet    string           `json:"snippet"`
	Shard      string           `json:"shard,omitempty"`
	Rewrite    string           `json:"rewrite,omitempty"`
	Penalty    float64          `json:"penalty,omitempty"`
	Highlights []core.Highlight `json:"highlights,omitempty"`
}

// SearchPage is the wire form of the shard server's query response.
type SearchPage struct {
	Answers      []Answer  `json:"answers"`
	Exact        int       `json:"exact"`
	Total        int       `json:"total"`
	Rewrites     int       `json:"rewritesTried"`
	Algorithm    string    `json:"algorithm"`
	Shards       int       `json:"shards,omitempty"`
	Partial      bool      `json:"partial,omitempty"`
	FailedShards []string  `json:"failedShards,omitempty"`
	ElapsedMS    float64   `json:"elapsedMs"`
	Trace        *obs.Node `json:"trace,omitempty"`
}

// TraceMode selects how a search RPC asks the replica for its span tree.
type TraceMode int

const (
	// TraceOff requests no trace (the replica still tail-samples its own).
	TraceOff TraceMode = iota
	// TraceSample asks for the span tree passively (X-Lotusx-Trace: sample):
	// the replica returns its trace but serves through its hot-path caches
	// like any other request.  This is the always-on tail-sampling mode — a
	// router collecting traces must not turn every shard cache hit into a
	// miss.
	TraceSample
	// TraceDebug asks with ?debug=trace, which bypasses the replica's caches
	// to measure the real evaluation pipeline — the explicit-debug mode.
	TraceDebug
)

// Search runs one query RPC.  mode asks the replica for its span tree so
// the router can graft it under the local shard span (see TraceMode).
func (c *Client) Search(ctx context.Context, req SearchRequest, mode TraceMode) (*SearchPage, error) {
	qv := url.Values{}
	var hdr http.Header
	switch mode {
	case TraceDebug:
		qv.Set("debug", "trace")
	case TraceSample:
		hdr = http.Header{"X-Lotusx-Trace": []string{"sample"}}
	}
	var out SearchPage
	if err := c.doHeader(ctx, http.MethodPost, "/api/v1/query", qv, hdr, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Complete runs one completion RPC.  kind is "tag" or "value"; path is the
// root-to-anchor chain in the XPath subset ("" completes root tags).
func (c *Client) Complete(ctx context.Context, kind, path string, axis twig.Axis, prefix string, k int) ([]complete.Candidate, error) {
	qv := url.Values{}
	qv.Set("kind", kind)
	qv.Set("axis", axisParam(axis))
	qv.Set("prefix", prefix)
	qv.Set("k", strconv.Itoa(clampK(k)))
	if path != "" {
		qv.Set("path", path)
	}
	var out struct {
		Candidates []complete.Candidate `json:"candidates"`
	}
	if err := c.do(ctx, http.MethodGet, "/api/v1/complete", qv, nil, &out); err != nil {
		return nil, err
	}
	return out.Candidates, nil
}

// Explain runs one explain RPC.  max caps the occurrence list; 0 means all
// the server allows.
func (c *Client) Explain(ctx context.Context, path string, axis twig.Axis, tag string, max int) ([]complete.Occurrence, error) {
	if max < 0 || max > maxWireMax {
		max = maxWireMax
	}
	qv := url.Values{}
	qv.Set("tag", tag)
	qv.Set("axis", axisParam(axis))
	qv.Set("max", strconv.Itoa(max))
	if path != "" {
		qv.Set("path", path)
	}
	var out struct {
		Occurrences []complete.Occurrence `json:"occurrences"`
	}
	if err := c.do(ctx, http.MethodGet, "/api/v1/explain", qv, nil, &out); err != nil {
		return nil, err
	}
	return out.Occurrences, nil
}

// Stats fetches the replica's dataset stats.  Both wire shapes decode into
// BackendInfo: a corpus answers BackendInfo verbatim, and a single engine's
// Stats payload (Go field names) lands on the same fields through
// encoding/json's case-insensitive match.
func (c *Client) Stats(ctx context.Context) (core.BackendInfo, error) {
	var info core.BackendInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/stats", url.Values{}, nil, &info)
	return info, err
}

// do runs one RPC: fault site, request ID propagation, bounded-pool HTTP
// round trip, latency observation, envelope decoding.  Any non-nil return
// is either a transport error (context errors included, wrapped by
// net/http) or a typed *Error decoded from the v1 envelope.
func (c *Client) do(ctx context.Context, method, path string, qv url.Values, body, out any) error {
	return c.doHeader(ctx, method, path, qv, nil, body, out)
}

// doHeader is do with extra request headers (nil for none).
func (c *Client) doHeader(ctx context.Context, method, path string, qv url.Values, hdr http.Header, body, out any) error {
	if err := c.faults.Fire(ctx, FaultRPC, c.name); err != nil {
		return err
	}
	if c.dataset != "" {
		qv.Set("dataset", c.dataset)
	}
	u := c.base + path
	if len(qv) > 0 {
		u += "?" + qv.Encode()
	}
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("remote: encode %s: %w", path, err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return fmt.Errorf("remote: build %s: %w", path, err)
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// One request ID names the whole router->shard tree: the shard server's
	// request envelope adopts an inbound X-Request-Id, so its logs and trace
	// join the router's under the same ID.
	if id := httpmw.RequestIDFrom(ctx); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	start := time.Now()
	if c.met != nil {
		defer func() { c.met.ObserveReplica(c.name, time.Since(start)) }()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeResponse(resp.StatusCode, resp.Header, c.faults.Reader(FaultBody, c.name, resp.Body), c.name, path, out)
}

func axisParam(axis twig.Axis) string {
	if axis == twig.Descendant {
		return "descendant"
	}
	return "child"
}

// clampK keeps a widened corpus ask within the server's 1..maxK validation.
// The cost of the cap: a single remote shard cannot page past maxWireK
// answers (see docs/CLUSTER.md, "Limits").
func clampK(k int) int {
	if k < 1 {
		return 1
	}
	if k > maxWireK {
		return maxWireK
	}
	return k
}
