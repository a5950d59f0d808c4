package server

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"lotusx/internal/obs"
)

// The cluster observability surface: the tail-sampled trace store behind
// GET /api/v1/traces and the SLO objectives the request envelope feeds.
// See docs/OBSERVABILITY.md, "Tail-sampled trace store" and "SLO burn
// rates".

// tracesResponse is the payload of GET /api/v1/traces: summaries (no span
// trees) newest-first, plus the store's retention counters.
type tracesResponse struct {
	// Traces lists matching retained records without their span trees; fetch
	// /api/v1/traces/{requestId} for the tree.
	Traces []obs.TraceRecord `json:"traces"`
	// Retained is the store's live record count before filtering; Offered and
	// Kept are its lifetime counters (kept/offered is the effective sampling
	// rate).
	Retained int64 `json:"retained"`
	Offered  int64 `json:"offered"`
	Kept     int64 `json:"kept"`
}

// handleTraces lists retained traces.
//
//	GET /api/v1/traces?stage=fanout&minMs=5&error=1&endpoint=query&limit=20
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		notFound(w, r, fmt.Errorf("trace store disabled (negative trace capacity)"))
		return
	}
	qv := r.URL.Query()
	f := obs.Filter{
		Stage:    qv.Get("stage"),
		Endpoint: qv.Get("endpoint"),
	}
	if v := qv.Get("minMs"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			badQuery(w, r, fmt.Errorf("bad minMs %q: want a non-negative number", v))
			return
		}
		f.MinDuration = time.Duration(ms * float64(time.Millisecond))
	}
	if v := qv.Get("error"); v != "" {
		f.ErrorsOnly = v == "1" || v == "true"
	}
	if v := qv.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxK {
			badQuery(w, r, fmt.Errorf("bad limit %q: want 1..%d", v, maxK))
			return
		}
		f.Limit = n
	}
	records, retained := s.traces.List(f)
	offered, kept, _ := s.traces.Stats()
	if records == nil {
		records = []obs.TraceRecord{}
	}
	writeJSON(w, http.StatusOK, tracesResponse{
		Traces:   records,
		Retained: int64(retained),
		Offered:  offered,
		Kept:     kept,
	})
}

// handleTrace fetches one retained trace with its full span tree — grafted
// remote shard spans included — by the request ID the original response
// carried in X-Request-Id.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.traces == nil {
		notFound(w, r, fmt.Errorf("trace store disabled (negative trace capacity)"))
		return
	}
	id := r.PathValue("id")
	rec := s.traces.Get(id)
	if rec == nil {
		notFound(w, r, fmt.Errorf("no retained trace for request %q (never offered, classified out, or evicted)", id))
		return
	}
	writeJSON(w, http.StatusOK, rec)
}

// SLOBurning reports the objectives currently burning their fast window, ""
// when none (or no tracker) — /readyz on the debug listener renders it as
// "ready (slo-burning): ...".
func (s *Server) SLOBurning() string {
	if s.slo == nil {
		return ""
	}
	return s.slo.Burning()
}
