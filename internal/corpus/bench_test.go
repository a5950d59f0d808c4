package corpus

import (
	"testing"

	"lotusx/internal/dataset"
)

// BenchmarkSplitDocument measures a 4-way split — the plan plus every
// part's document — of each dataset at the scale the live benchmark serves
// (docs/PERFORMANCE.md, "Start-up").
func BenchmarkSplitDocument(b *testing.B) {
	for _, k := range dataset.Kinds {
		d, err := dataset.Build(k, 20, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SplitDocument(d, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpen measures reopening a persisted 4-shard corpus of each
// dataset at the live benchmark's scale: read every shard file, check it,
// load its document and rebuild its engine.
func BenchmarkOpen(b *testing.B) {
	for _, k := range dataset.Kinds {
		d, err := dataset.Build(k, 20, 42)
		if err != nil {
			b.Fatal(err)
		}
		dir := b.TempDir()
		if _, err := FromDocument(string(k), d, 4, Config{Dir: dir}); err != nil {
			b.Fatal(err)
		}
		b.Run(string(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Open(dir, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
