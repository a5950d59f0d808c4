package xmlparse_test

import (
	"bytes"
	"testing"

	"lotusx/internal/dataset"
	"lotusx/internal/xmlparse"
)

// TestParserMatchesReferenceOnDatasets: on each synthetic dataset at scale
// 2 the span scanner and the reference parser give the same events, with
// the same positions.
func TestParserMatchesReferenceOnDatasets(t *testing.T) {
	for _, k := range dataset.Kinds {
		var src bytes.Buffer
		if err := dataset.Generate(k, 2, 7, &src); err != nil {
			t.Fatal(err)
		}
		if d := xmlparse.MatchesReference(src.String()); d != "" {
			t.Errorf("%s: %s", k, d)
		}
	}
}
