// Package httpmw holds the pieces of the LotusX request envelope that do not
// depend on the route table: the v1 error envelope —
// {"error": {"code": ..., "message": ...}} — shared by the envelope and the
// handlers so every failure path answers in one shape, the StatusWriter the
// envelope observes a response through, and the per-request Exchange (request
// ID, matched route, access-log annotations) carried in the context.
// Admission and observation themselves are internal/server's envelope, which
// reads the route row.
package httpmw

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------- envelope

// The v1 error codes.  Every error response carries exactly one of these.
const (
	CodeBadQuery         = "bad_query"          // malformed input: body, query, parameters
	CodeNotFound         = "not_found"          // unknown dataset, node, job, or route
	CodeMethodNotAllowed = "method_not_allowed" // known path, unsupported method (see Allow)
	CodeTooLarge         = "too_large"          // request body exceeded the ingest bound
	CodeTimeout          = "timeout"            // the per-request deadline expired mid-work
	CodeOverloaded       = "overloaded"         // admission control or the job queue shed the request
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
	// RequestID echoes X-Request-Id; absent outside the request envelope.
	RequestID string `json:"requestId,omitempty"`
}

// WriteError writes the v1 JSON error envelope.  Prefer WriteErrorCtx inside
// the request envelope, which also stamps the request ID into the body.
func WriteError(w http.ResponseWriter, status int, code, message string) {
	writeErrorDetail(w, status, ErrorDetail{Code: code, Message: message})
}

// WriteErrorCtx writes the v1 JSON error envelope with the request ID from
// ctx (as assigned by Begin) stamped into the body.
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
// the envelope observes.
type StatusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
	wrote  bool
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

// Status returns the response status: 200 if nothing was written, as
// net/http answers a handler that writes nothing.
func (sw *StatusWriter) Status() int {
	if sw.status == 0 {
		return http.StatusOK
	}
	return sw.status
}

// Bytes returns the response body bytes written so far.
func (sw *StatusWriter) Bytes() int64 { return sw.bytes }

// Wrote reports whether any part of the response went out.
func (sw *StatusWriter) Wrote() bool { return sw.wrote }

// ---------------------------------------------------------------- exchange

type ctxKey struct{}

// Exchange is one request's envelope state, carried in its context: the
// request ID, the endpoint name of the route it matched, and — when the
// access log is on — the attributes handlers add to its line.
type Exchange struct {
	// ID is the request ID, echoed in X-Request-Id.
	ID string
	// Route is the matched route's endpoint name; "" when no route matched.
	Route string
	// Logged says whether the access log is on for this request, and with
	// it whether Annotate collects anything.
	Logged bool

	// mu guards attrs: a handler may annotate from goroutines it spawns.
	mu    sync.Mutex
	attrs []slog.Attr
}

var (
	// epoch distinguishes request IDs across process restarts.
	epoch          = strconv.FormatInt(time.Now().UnixMilli(), 36) + "-"
	requestCounter atomic.Uint64
)

// Begin opens r's Exchange: it assigns the request ID (an inbound
// X-Request-Id, from a proxy or a retrying client, is preserved), echoes it
// in the X-Request-Id response header, and returns the request carrying the
// Exchange.  logged says whether the access log is on for this request.
func Begin(w http.ResponseWriter, r *http.Request, logged bool) (*Exchange, *http.Request) {
	x := &Exchange{ID: r.Header.Get("X-Request-Id"), Logged: logged}
	if x.ID == "" {
		x.ID = epoch + strconv.FormatUint(requestCounter.Add(1), 36)
	}
	w.Header().Set("X-Request-Id", x.ID)
	return x, r.WithContext(context.WithValue(r.Context(), ctxKey{}, x))
}

// ExchangeFrom returns the Exchange Begin stored in ctx, nil if absent.
func ExchangeFrom(ctx context.Context) *Exchange {
	x, _ := ctx.Value(ctxKey{}).(*Exchange)
	return x
}

// RequestIDFrom returns the request ID Begin assigned, "" if absent.
func RequestIDFrom(ctx context.Context) string {
	if x := ExchangeFrom(ctx); x != nil {
		return x.ID
	}
	return ""
}

// Annotate attaches key=value to the current request's access-log line.
// Handlers use it to enrich the log with work-dependent facts the envelope
// cannot know — the resolved join algorithm, the result count — joinable
// with traces and metrics via the request ID.  It is a no-op when the
// access log is off or outside an Exchange.
func Annotate(ctx context.Context, key string, value any) {
	x := ExchangeFrom(ctx)
	if x == nil || !x.Logged {
		return
	}
	x.mu.Lock()
	x.attrs = append(x.attrs, slog.Any(key, value))
	x.mu.Unlock()
}

// AppendAnnotations appends the attributes handlers attached with Annotate
// to dst.
func (x *Exchange) AppendAnnotations(dst []slog.Attr) []slog.Attr {
	x.mu.Lock()
	defer x.mu.Unlock()
	return append(dst, x.attrs...)
}

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
