package remote

import (
	"bytes"
	"errors"
	"net/http"
	"strings"
	"testing"
)

// FuzzDecodeResponse: whatever status, Retry-After header and body a
// replica sends, decoding answers nil or a decode error naming the replica
// for a 200, and a typed *Error carrying the status for anything else —
// never a panic.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(uint16(200), "", []byte(`{"answers":[{"node":3,"path":"/a/b","score":1.5,"snippet":"<b/>"}],"exact":1,"total":1}`))
	f.Add(uint16(200), "", []byte(`{"answers":[{"node":`))
	f.Add(uint16(200), "", []byte(`{"answers":"nope"}`))
	f.Add(uint16(503), "7", []byte(`{"error":{"code":"overloaded","message":"quarantined"}}`))
	f.Add(uint16(502), "", []byte(`<html>bad gateway</html>`))
	f.Add(uint16(400), "-1", []byte(`{"error":{"code":"","message":"x"}}`))
	f.Add(uint16(429), "9223372037", []byte{})
	f.Fuzz(func(t *testing.T, status uint16, retryAfter string, body []byte) {
		code := 100 + int(status)%500
		header := http.Header{}
		if retryAfter != "" {
			header.Set("Retry-After", retryAfter)
		}
		var page SearchPage
		err := decodeResponse(code, header, bytes.NewReader(body), "fuzz", "/api/v1/query", &page)
		var re *Error
		if code != http.StatusOK {
			if !errors.As(err, &re) {
				t.Fatalf("status %d: err = %v (%T), want a *remote.Error", code, err, err)
			}
			if re.Status != code || re.Replica != "fuzz" || re.Code == "" || re.RetryAfter < 0 {
				t.Fatalf("status %d: decoded %+v", code, re)
			}
			return
		}
		if err != nil && (errors.As(err, &re) || !strings.HasPrefix(err.Error(), "remote fuzz: decode /api/v1/query: ")) {
			t.Fatalf("200: err = %v, want a decode error naming the replica", err)
		}
	})
}
