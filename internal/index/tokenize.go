package index

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// maxTokenLen drops degenerate tokens (base64 blobs and the like) that would
// bloat the postings map without ever being typed by a user.
const maxTokenLen = 64

// Tokenize splits a value into lowercase search tokens: maximal runs of
// letters and digits.  It is the single tokenizer used for both indexing and
// querying, so the two sides always agree.
func Tokenize(s string) []string {
	spans := TokenizeSpans(s)
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Token
	}
	return out
}

// TokenSpan is a token plus its byte range [Start, End) in the source
// string — the basis of match highlighting in the UI.
type TokenSpan struct {
	Token string
	Start int
	End   int
}

// TokenizeSpans is Tokenize with source positions.
func TokenizeSpans(s string) []TokenSpan {
	var out []TokenSpan
	var b strings.Builder
	start := -1
	flush := func(end int) {
		if b.Len() > 0 && b.Len() <= maxTokenLen {
			out = append(out, TokenSpan{Token: b.String(), Start: start, End: end})
		}
		b.Reset()
		start = -1
	}
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush(i)
		}
	}
	flush(len(s))
	return out
}

// eachToken is the index build's tokenizer: it calls fn with exactly the
// tokens and byte ranges of TokenizeSpans, in order, but builds no slice, and
// passes a run that is already lowercase — nearly every run of real data —
// as a substring of s, copying only runs that need folding.
//
// It stands beside TokenizeSpans rather than under it on purpose.  Ranking
// tokenizes the value of every match (internal/rank), so a cheaper Tokenize
// shortens value-predicate queries by 15–20 %; that is a read-path change,
// and it moves the ingest.mixed benchmark workload across the critical point
// described in docs/PERFORMANCE.md ("Start-up").  TestTokenizersAgree holds
// the two to the same output until they can be merged.
func eachToken(s string, fn func(tok string, start, end int)) {
	start := -1
	folded := true // the open run is its own lowercase form so far
	flush := func(end int) {
		if start < 0 {
			return
		}
		tok := s[start:end]
		if !folded {
			tok = strings.Map(unicode.ToLower, tok)
		}
		if len(tok) <= maxTokenLen {
			fn(tok, start, end)
		}
		start, folded = -1, true
	}
	for i := 0; i < len(s); {
		r, w := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, w = utf8.DecodeRuneInString(s[i:])
		}
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			if unicode.ToLower(r) != r {
				folded = false
			}
		} else {
			flush(i)
		}
		i += w
	}
	flush(len(s))
}
