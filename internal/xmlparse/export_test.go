package xmlparse

import "strings"

// MatchesReference parses src with the span scanner, at every window size
// and read pattern of checkMatchesReference, and with the reference parser,
// and describes the first difference between the runs, or returns "" when
// they agree.  It lets tests outside the package, which may import the
// dataset generators, compare the parsers.
func MatchesReference(src string) string {
	want := referenceRun(strings.NewReader(src), false)
	for name, got := range scannerRuns(src, false) {
		if d := diff(got, want); d != "" {
			return name + ": " + d
		}
	}
	return ""
}
