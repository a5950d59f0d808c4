package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"lotusx/internal/httpmw"
	"lotusx/internal/metrics"
)

// The request envelope: the code every request passes before and after its
// handler.  ServeHTTP opens one Exchange and one StatusWriter, reads the
// clock once, and defers one observe.  The mux then dispatches to a handler
// that mount wrapped in admitted, which names the request's endpoint from
// its route row and runs the one admission decision.  Nothing here guesses
// the endpoint from the raw path, so no outside input mints a metric label.

// endpoint is one endpoint name's share of the route table: its metrics and
// whether admission control lets it through untouched.  The rows sharing a
// name agree on both.
type endpoint struct {
	name    string
	exempt  bool
	metrics *metrics.Endpoint
}

// ServeHTTP implements http.Handler: it is the request envelope.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sw := &httpmw.StatusWriter{ResponseWriter: w}
	x, r := httpmw.Begin(sw, r, s.logger.Enabled(r.Context(), slog.LevelInfo))
	defer s.observe(sw, r, x, start)
	s.mux.ServeHTTP(sw, r)
}

// observe finishes every request, refused and panicking ones included: it
// recovers a handler panic into the JSON 500, records the matched
// endpoint's counters and latency, and writes the access-log line when the
// logger wants it.
func (s *Server) observe(sw *httpmw.StatusWriter, r *http.Request, x *httpmw.Exchange, start time.Time) {
	if p := recover(); p != nil {
		if p == http.ErrAbortHandler {
			panic(p) // deliberate connection abort: let net/http handle it
		}
		s.logger.LogAttrs(r.Context(), slog.LevelError, "panic",
			slog.String("path", r.URL.Path),
			slog.String("requestId", x.ID),
			slog.String("panic", fmt.Sprint(p)),
			slog.String("stack", string(debug.Stack())),
		)
		if !sw.Wrote() {
			httpmw.WriteErrorCtx(r.Context(), sw, http.StatusInternalServerError, httpmw.CodeInternal, "internal server error")
		}
	}
	d, status := time.Since(start), sw.Status()
	if e := s.endpoints[x.Route]; e != nil {
		e.metrics.Record(status, d)
	}
	if !x.Logged {
		return
	}
	attrs := x.AppendAnnotations([]slog.Attr{
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("durationMs", float64(d.Microseconds())/1000),
		slog.Int64("bytes", sw.Bytes()),
		slog.String("requestId", x.ID),
	})
	s.logger.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

// admitted wraps a route's handler: it names the request's endpoint, runs
// admission unless the endpoint is exempt — counting a refusal as shed —
// and bounds the admitted request with the query deadline.
func (s *Server) admitted(e *endpoint, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpmw.ExchangeFrom(r.Context()).Route = e.name
		if !e.exempt {
			if !s.admit(w, r) {
				e.metrics.Shed.Add(1)
				return
			}
			if s.slots != nil {
				defer func() { <-s.slots }()
			}
		}
		if s.timeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h.ServeHTTP(w, r)
	})
}

// admit is the one admission decision, in order: a draining server refuses
// new work, and a saturated one sheds it (when -max-inflight is set).  Both
// answer 503 + Retry-After: the server as a whole cannot take the request —
// retry later or against another instance.  Admitted, the request holds one
// in-flight slot, which the caller releases.  Refused, it has been answered.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.draining.Load() {
		s.reg.Lifecycle().DrainRejected.Add(1)
		refuse(w, r, time.Second, "server is draining for shutdown, retry against another instance")
		return false
	}
	if s.slots != nil {
		select {
		case s.slots <- struct{}{}:
		default:
			refuse(w, r, time.Second, "server is at capacity, retry later")
			return false
		}
	}
	return true
}

// refuse answers a request the server will not serve now: 503, a
// Retry-After of wait rounded up to whole seconds (at least 1), and the
// overloaded envelope.
func refuse(w http.ResponseWriter, r *http.Request, wait time.Duration, msg string) {
	secs := max(1, int((wait+time.Second-1)/time.Second))
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	httpmw.WriteErrorCtx(r.Context(), w, http.StatusServiceUnavailable, httpmw.CodeOverloaded, msg)
}
