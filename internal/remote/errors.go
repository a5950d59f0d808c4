package remote

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"lotusx/internal/httpmw"
)

// Error is a shard server's v1 error envelope decoded back into a typed
// value: the transport succeeded but the remote answered with an error
// status.  It deliberately does not wrap context errors — a remote 5xx is a
// verdict on the shard, so the corpus breaker must advance on it, whereas a
// local context casualty (which arrives as the http client's own error, not
// as an Error) may only mean this router is giving up.
type Error struct {
	// Status is the HTTP status the replica answered with.
	Status int
	// Code is the v1 error code (httpmw.Code*); when the body was not a
	// decodable envelope it is inferred from the status.
	Code string
	// Message is the envelope's human-readable message.
	Message string
	// Replica names the replica that answered, for logs and joined errors.
	Replica string
	// RetryAfter is the parsed Retry-After header when the replica sent one
	// (quarantined corpus, shed load); 0 otherwise.
	RetryAfter time.Duration
}

func (e *Error) Error() string {
	return fmt.Sprintf("remote %s: %d %s: %s", e.Replica, e.Status, e.Code, e.Message)
}

// maxWireBody caps a 200 response body: maxWireK answers, each with a
// snippet of at most the server's snippetMax bound (maxWireSnippet bytes),
// plus slack for the envelope, paths, highlights and JSON escapes.  A
// replica that streams past it fails the call with a decode error instead
// of growing the router's heap without bound.
const maxWireBody = maxWireK*maxWireSnippet + 16<<20

// decodeResponse decodes one response into out: a 200 body as JSON of at
// most maxWireBody bytes, any other status as an *Error.  A failed decode
// names the replica and the path.
func decodeResponse(status int, header http.Header, body io.Reader, replica, path string, out any) error {
	if status != http.StatusOK {
		return decodeError(status, header, body, replica)
	}
	lr := &io.LimitedReader{R: body, N: maxWireBody + 1}
	if err := json.NewDecoder(lr).Decode(out); err != nil {
		if lr.N <= 0 {
			err = fmt.Errorf("body exceeds %d bytes", maxWireBody)
		}
		return fmt.Errorf("remote %s: decode %s: %w", replica, path, err)
	}
	return nil
}

// decodeError turns a non-200 response into an *Error, reading at most a
// small bounded prefix of the body.  Envelope decoding is best-effort: a
// proxy's HTML error page still yields a typed Error with the code inferred
// from the status.
func decodeError(status int, header http.Header, body io.Reader, replica string) error {
	data, _ := io.ReadAll(io.LimitReader(body, 8<<10))
	e := &Error{Status: status, Replica: replica}
	var env httpmw.ErrorBody
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		e.Code, e.Message = env.Error.Code, env.Error.Message
	} else {
		e.Code = httpmw.CodeForStatus(status)
		e.Message = strings.TrimSpace(string(data))
		if e.Message == "" {
			e.Message = http.StatusText(status)
		}
	}
	if ra := header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 && secs <= math.MaxInt64/int(time.Second) {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}
