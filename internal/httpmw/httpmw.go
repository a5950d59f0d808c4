// Package httpmw is the serving middleware stack of the LotusX HTTP API:
// request-ID injection, structured request logging (log/slog), panic
// recovery with JSON 500s, per-request deadlines, a drain gate that refuses
// new work during graceful shutdown (503 + Retry-After), a semaphore
// concurrency limiter that sheds server-wide overload (503 + Retry-After),
// a per-client token-bucket rate limiter (429 + Retry-After), and
// per-endpoint metrics instrumentation.  The status split is deliberate:
// 503 says "the server as a whole cannot take this right now, try another
// instance", 429 says "you specifically are over your rate, slow down".
// The package also owns the v1 error envelope —
// {"error": {"code": ..., "message": ...}} — shared by middleware and
// handlers so every failure path answers in one shape.
package httpmw

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lotusx/internal/metrics"
)

// Middleware wraps an http.Handler with one serving concern.
type Middleware func(http.Handler) http.Handler

// Chain applies mws to h with the first middleware outermost, so
// Chain(h, a, b, c) serves as a(b(c(h))).
func Chain(h http.Handler, mws ...Middleware) http.Handler {
	for i := len(mws) - 1; i >= 0; i-- {
		h = mws[i](h)
	}
	return h
}

// ---------------------------------------------------------------- envelope

// The v1 error codes.  Every error response carries exactly one of these.
const (
	CodeBadQuery         = "bad_query"          // malformed input: body, query, parameters
	CodeNotFound         = "not_found"          // unknown dataset, node, job, or route
	CodeMethodNotAllowed = "method_not_allowed" // known path, unsupported method (see Allow)
	CodeTooLarge         = "too_large"          // request body exceeded the ingest bound
	CodeTimeout          = "timeout"            // the per-request deadline expired mid-work
	CodeOverloaded       = "overloaded"         // the concurrency limiter or job queue shed the request
	CodeUpstream         = "upstream_failed"    // a shard or replica could not answer (failfast fan-out)
	CodeInternal         = "internal"           // a bug: panic or unexpected failure
)

// ErrorBody is the uniform v1 error envelope.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable code, the human message, and the
// request ID to join the failure with logs and traces.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// RequestID echoes X-Request-Id; absent outside the middleware stack.
	RequestID string `json:"requestId,omitempty"`
}

// WriteError writes the v1 JSON error envelope.  Prefer WriteErrorCtx inside
// the middleware stack, which also stamps the request ID into the body.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	writeErrorDetail(w, status, ErrorDetail{Code: code, Message: message})
}

// WriteErrorCtx writes the v1 JSON error envelope with the request ID from
// ctx (as injected by the RequestID middleware) stamped into the body.
func WriteErrorCtx(ctx context.Context, w http.ResponseWriter, status int, code, message string) {
	writeErrorDetail(w, status, ErrorDetail{Code: code, Message: message, RequestID: RequestIDFrom(ctx)})
}

func writeErrorDetail(w http.ResponseWriter, status int, d ErrorDetail) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorBody{Error: d})
}

// CodeForStatus maps an HTTP status to its v1 error code.
func CodeForStatus(status int) string {
	switch {
	case status == http.StatusNotFound:
		return CodeNotFound
	case status == http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case status == http.StatusRequestEntityTooLarge:
		return CodeTooLarge
	case status == http.StatusGatewayTimeout:
		return CodeTimeout
	case status == http.StatusTooManyRequests:
		return CodeOverloaded
	case status == http.StatusBadGateway:
		return CodeUpstream
	case status >= 400 && status < 500:
		return CodeBadQuery
	default:
		return CodeInternal
	}
}

// ------------------------------------------------------------ statusWriter

// StatusWriter wraps a ResponseWriter, recording the status and byte count
// for logging, metrics and the recovery middleware.
type StatusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
}

// NewStatusWriter wraps w; if w is already a StatusWriter it is returned
// as-is so one request is tracked exactly once.
func NewStatusWriter(w http.ResponseWriter) *StatusWriter {
	if sw, ok := w.(*StatusWriter); ok {
		return sw
	}
	return &StatusWriter{ResponseWriter: w}
}

// WriteHeader records the status and forwards.
func (sw *StatusWriter) WriteHeader(status int) {
	if !sw.wrote {
		sw.status = status
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(status)
}

// Write forwards, defaulting the status to 200 on first write.
func (sw *StatusWriter) Write(p []byte) (int, error) {
	if !sw.wrote {
		sw.status = http.StatusOK
		sw.wrote = true
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += int64(n)
	return n, err
}

// Status returns the response status, 200 if only Write was called, 0 if
// nothing was written yet.
func (sw *StatusWriter) Status() int {
	if !sw.wrote {
		return 0
	}
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// Wrote reports whether any part of the response went out.
func (sw *StatusWriter) Wrote() bool { return sw.wrote }

// -------------------------------------------------------------- requestID

type ctxKey int

const requestIDKey ctxKey = 0

var requestCounter atomic.Uint64

// RequestID assigns every request a unique ID, stores it in the context and
// echoes it in the X-Request-Id response header.  An inbound X-Request-Id
// (from a proxy or a retrying client) is preserved.
func RequestID() Middleware {
	// The epoch prefix distinguishes IDs across process restarts.
	epoch := time.Now().UnixMilli()
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get("X-Request-Id")
			if id == "" {
				id = strconv.FormatInt(epoch, 36) + "-" + strconv.FormatUint(requestCounter.Add(1), 36)
			}
			w.Header().Set("X-Request-Id", id)
			next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey, id)))
		})
	}
}

// RequestIDFrom returns the request ID injected by RequestID, "" if absent.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// ------------------------------------------------------------- annotations

const annotationsKey ctxKey = 1

// annotations collects handler-supplied attributes for the request log line.
// A mutex guards the slice: a handler may annotate from goroutines it spawns.
type annotations struct {
	mu    sync.Mutex
	attrs []slog.Attr
}

// Annotate attaches key=value to the current request's log line.  Handlers
// use it to enrich the access log with work-dependent facts middleware
// cannot know — the resolved join algorithm, the result count — joinable
// with traces and metrics via the request ID.  Outside a Logging-wrapped
// request it is a no-op.
func Annotate(ctx context.Context, key string, value any) {
	a, _ := ctx.Value(annotationsKey).(*annotations)
	if a == nil {
		return
	}
	a.mu.Lock()
	a.attrs = append(a.attrs, slog.Any(key, value))
	a.mu.Unlock()
}

// ---------------------------------------------------------------- logging

// discard drops every record, and its Enabled says so at every level, so a
// caller can skip building one.  (slog.DiscardHandler needs Go 1.24.)
var discard = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// OrDiscard returns l, or for nil a logger that drops every record.
func OrDiscard(l *slog.Logger) *slog.Logger {
	if l == nil {
		return discard
	}
	return l
}

// Logging emits one structured log line per request: method, path, status,
// duration, bytes and request ID.  It wraps the ResponseWriter in a
// StatusWriter, which downstream middleware (Recover, Instrument) reuses.
// When l does not log at Info (a nil l logs nothing) the line is never
// built and Annotate calls are no-ops.
func Logging(l *slog.Logger) Middleware {
	l = OrDiscard(l)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := NewStatusWriter(w)
			if !l.Enabled(r.Context(), slog.LevelInfo) {
				next.ServeHTTP(sw, r)
				return
			}
			start := time.Now()
			ann := &annotations{}
			r = r.WithContext(context.WithValue(r.Context(), annotationsKey, ann))
			next.ServeHTTP(sw, r)
			attrs := []slog.Attr{
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.Status()),
				slog.Float64("durationMs", float64(time.Since(start).Microseconds())/1000),
				slog.Int64("bytes", sw.bytes),
				slog.String("requestId", RequestIDFrom(r.Context())),
			}
			ann.mu.Lock()
			attrs = append(attrs, ann.attrs...)
			ann.mu.Unlock()
			l.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
		})
	}
}

// ---------------------------------------------------------------- recover

// Recover turns a handler panic into a JSON 500 envelope (when the response
// has not started) and logs the stack, instead of killing the connection —
// one bad request must not take the serving process with it.
func Recover(l *slog.Logger) Middleware {
	l = OrDiscard(l)
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			defer func() {
				rec := recover()
				if rec == nil {
					return
				}
				if rec == http.ErrAbortHandler {
					panic(rec) // deliberate connection abort: let net/http handle it
				}
				l.LogAttrs(r.Context(), slog.LevelError, "panic",
					slog.String("path", r.URL.Path),
					slog.String("requestId", RequestIDFrom(r.Context())),
					slog.String("panic", fmt.Sprint(rec)),
					slog.String("stack", string(debug.Stack())),
				)
				if sw, ok := w.(*StatusWriter); !ok || !sw.Wrote() {
					WriteErrorCtx(r.Context(), w, http.StatusInternalServerError, CodeInternal, "internal server error")
				}
			}()
			next.ServeHTTP(w, r)
		})
	}
}

// --------------------------------------------------------------- deadline

// Deadline bounds every request with a context deadline.  Handlers that
// plumb r.Context() into evaluation (SearchContext, the context-aware
// completion entry points) stop mid-join once it expires.  A non-positive d
// disables the middleware.
func Deadline(d time.Duration) Middleware {
	return func(next http.Handler) http.Handler {
		if d <= 0 {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			ctx, cancel := context.WithTimeout(r.Context(), d)
			defer cancel()
			next.ServeHTTP(w, r.WithContext(ctx))
		})
	}
}

// ------------------------------------------------------------------ limit

// LimitOptions tunes Limit.
type LimitOptions struct {
	// RetryAfter is advertised in the Retry-After header of shed responses;
	// 0 means 1s.
	RetryAfter time.Duration
	// OnShed, when non-nil, observes every shed request (metrics hook).
	OnShed func(*http.Request)
	// Exempt, when non-nil, bypasses the limiter for matching requests —
	// e.g. the metrics endpoint must answer while the system sheds load.
	Exempt func(*http.Request) bool
}

// Limit caps in-flight requests at max with a semaphore.  Requests beyond
// the cap are shed immediately with 503 + Retry-After and the overloaded
// envelope — bounded degradation instead of collapse.  503 (not 429) because
// the condition is server-wide, not the caller's fault: a load balancer
// should retry against another instance, matching the quarantine and
// queue-full paths.  max <= 0 disables the middleware.
func Limit(max int, opts LimitOptions) Middleware {
	return func(next http.Handler) http.Handler {
		if max <= 0 {
			return next
		}
		sem := make(chan struct{}, max)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if opts.Exempt != nil && opts.Exempt(r) {
				next.ServeHTTP(w, r)
				return
			}
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
				next.ServeHTTP(w, r)
			default:
				if opts.OnShed != nil {
					opts.OnShed(r)
				}
				setRetryAfter(w, opts.RetryAfter)
				WriteErrorCtx(r.Context(), w, http.StatusServiceUnavailable, CodeOverloaded,
					"server is at capacity, retry later")
			}
		})
	}
}

// setRetryAfter advertises d (rounded up to whole seconds, minimum 1) in the
// Retry-After header; d <= 0 means 1s.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// ------------------------------------------------------------- drain gate

// DrainGateOptions tunes DrainGate.
type DrainGateOptions struct {
	// RetryAfter is advertised on refused requests; 0 means 1s.  Keep it
	// short — the instance is going away, the client should go elsewhere.
	RetryAfter time.Duration
	// OnReject, when non-nil, observes every refused request (metrics hook).
	OnReject func(*http.Request)
	// Exempt, when non-nil, bypasses the gate — observability and job polls
	// must answer while the server drains.
	Exempt func(*http.Request) bool
}

// DrainGate refuses new work with 503 + Retry-After while draining()
// reports true — the intake stop of graceful shutdown.  Requests already
// past the gate are untouched; http.Server.Shutdown waits for them, so a
// drain completes in-flight queries with zero failures from this layer.
func DrainGate(draining func() bool, opts DrainGateOptions) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !draining() || (opts.Exempt != nil && opts.Exempt(r)) {
				next.ServeHTTP(w, r)
				return
			}
			if opts.OnReject != nil {
				opts.OnReject(r)
			}
			setRetryAfter(w, opts.RetryAfter)
			WriteErrorCtx(r.Context(), w, http.StatusServiceUnavailable, CodeOverloaded,
				"server is draining for shutdown, retry against another instance")
		})
	}
}

// ------------------------------------------------------------- rate limit

// RateLimitOptions tunes RateLimit.
type RateLimitOptions struct {
	// QPS is the sustained per-client request rate; <= 0 disables the
	// middleware.
	QPS float64
	// Burst is the bucket capacity — the size of a full-speed burst a client
	// may spend before the sustained rate applies.  <= 0 derives a default of
	// max(1, ceil(2*QPS)).
	Burst int
	// MaxClients bounds the bucket table (one bucket per distinct client
	// identity); at the bound, idle buckets are evicted before new clients
	// are admitted.  0 means 4096.
	MaxClients int
	// OnLimited, when non-nil, observes every refused request and the client
	// identity it was attributed to (metrics hook).
	OnLimited func(r *http.Request, client string)
	// Exempt, when non-nil, bypasses the limiter — health, metrics and job
	// polls must answer even for a client that spent its query budget.
	Exempt func(*http.Request) bool
	// Metrics, when non-nil, receives allowed/limited/evicted counters and
	// the live client-bucket gauge.
	Metrics *metrics.AdmissionMetrics
	// Now overrides the refill clock in tests; nil means time.Now.
	Now func() time.Time
}

// ClientID resolves the identity a request is limited under: the
// X-Lotusx-Client header when present (cooperating clients and forwarding
// proxies name themselves), else the remote address host.  Deliberately not
// X-Forwarded-For — an unauthenticated upstream header would let any client
// mint fresh buckets at will.
func ClientID(r *http.Request) string {
	if id := r.Header.Get("X-Lotusx-Client"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// tokenBucket is one client's admission state.
type tokenBucket struct {
	tokens float64
	last   time.Time // last refill
}

// RateLimit enforces a per-client token bucket: each request spends one
// token, tokens refill continuously at QPS up to Burst, and an empty bucket
// answers 429 + Retry-After (the time until the next token accrues).  429 —
// not the limiter's 503 — because the condition is this caller's own rate,
// not server overload: the hot client backs off while everyone else is
// untouched.
func RateLimit(opts RateLimitOptions) Middleware {
	return func(next http.Handler) http.Handler {
		if opts.QPS <= 0 {
			return next
		}
		burst := float64(opts.Burst)
		if opts.Burst <= 0 {
			burst = 2 * opts.QPS
			if burst < 1 {
				burst = 1
			}
		}
		maxClients := opts.MaxClients
		if maxClients <= 0 {
			maxClients = 4096
		}
		now := opts.Now
		if now == nil {
			now = time.Now
		}
		var (
			mu      sync.Mutex
			buckets = make(map[string]*tokenBucket)
		)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if opts.Exempt != nil && opts.Exempt(r) {
				next.ServeHTTP(w, r)
				return
			}
			id := ClientID(r)
			t := now()
			mu.Lock()
			b := buckets[id]
			if b == nil {
				if len(buckets) >= maxClients {
					evictIdle(buckets, t, burst/opts.QPS, opts.Metrics)
				}
				b = &tokenBucket{tokens: burst, last: t}
				buckets[id] = b
			}
			if dt := t.Sub(b.last).Seconds(); dt > 0 {
				b.tokens = min(burst, b.tokens+dt*opts.QPS)
			}
			b.last = t
			allowed := b.tokens >= 1
			var wait time.Duration
			if allowed {
				b.tokens--
			} else {
				wait = time.Duration((1 - b.tokens) / opts.QPS * float64(time.Second))
			}
			clients := len(buckets)
			mu.Unlock()
			if m := opts.Metrics; m != nil {
				m.SetClients(clients)
				if allowed {
					m.Allowed.Add(1)
				} else {
					m.Limited.Add(1)
				}
			}
			if allowed {
				next.ServeHTTP(w, r)
				return
			}
			if opts.OnLimited != nil {
				opts.OnLimited(r, id)
			}
			setRetryAfter(w, wait)
			WriteErrorCtx(r.Context(), w, http.StatusTooManyRequests, CodeOverloaded,
				"client "+id+" is over its request rate, slow down")
		})
	}
}

// evictIdle drops buckets idle long enough to have refilled completely (they
// carry no state a fresh bucket wouldn't), then — if none were — the
// longest-idle bucket, so one crawl over many client identities cannot pin
// the table.  Called with the limiter lock held.
func evictIdle(buckets map[string]*tokenBucket, now time.Time, fullRefill float64, m *metrics.AdmissionMetrics) {
	evicted := 0
	var oldestKey string
	var oldest time.Time
	for k, b := range buckets {
		if now.Sub(b.last).Seconds() >= fullRefill {
			delete(buckets, k)
			evicted++
			continue
		}
		if oldestKey == "" || b.last.Before(oldest) {
			oldestKey, oldest = k, b.last
		}
	}
	if evicted == 0 && oldestKey != "" {
		delete(buckets, oldestKey)
		evicted++
	}
	if m != nil {
		m.Evicted.Add(int64(evicted))
	}
}

// ------------------------------------------------------------- instrument

// Instrument records every response's status and latency into ep.  Mount it
// per endpoint so the registry splits metrics by route.
func Instrument(ep *metrics.Endpoint) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sw := NewStatusWriter(w)
			start := time.Now()
			next.ServeHTTP(sw, r)
			status := sw.Status()
			if status == 0 {
				status = http.StatusOK
			}
			ep.Record(status, time.Since(start))
		})
	}
}
