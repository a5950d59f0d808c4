package doc_test

import (
	"bytes"
	"testing"

	"lotusx/internal/dataset"
	"lotusx/internal/doc"
)

// BenchmarkFromReader measures parsing each dataset at the scale the live
// benchmark serves into a Document (docs/PERFORMANCE.md, "Start-up").
func BenchmarkFromReader(b *testing.B) {
	for _, k := range dataset.Kinds {
		var src bytes.Buffer
		if err := dataset.Generate(k, 20, 42, &src); err != nil {
			b.Fatal(err)
		}
		b.Run(string(k), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(src.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := doc.FromReader(string(k), bytes.NewReader(src.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
