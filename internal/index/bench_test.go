package index

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lotusx/internal/dataset"
	"lotusx/internal/doc"
)

// Posting-list intersection micro-benchmarks: the ContainsAll shape that
// motivates galloping is one rare token against one common token — a
// posting-list length skew far past gallopSkew.  The linear merge walks the
// whole common list; galloping touches O(|rare| · log |common|) of it.

// skewedLists builds a rare list of rareN entries embedded in a common list
// of commonN entries (every rare entry also common, so the intersection is
// the whole rare list — the worst case for galloping's output size).
func skewedLists(rareN, commonN int) (rare, common []doc.NodeID) {
	common = make([]doc.NodeID, commonN)
	for i := range common {
		common[i] = doc.NodeID(i * 3)
	}
	rare = make([]doc.NodeID, rareN)
	step := commonN / rareN
	for i := range rare {
		rare[i] = common[i*step]
	}
	return rare, common
}

func BenchmarkIntersectSkewed(b *testing.B) {
	for _, shape := range []struct{ rare, common int }{
		{10, 100000},
		{100, 100000},
		{1000, 100000},
	} {
		rare, common := skewedLists(shape.rare, shape.common)
		b.Run(fmt.Sprintf("linear/%dx%d", shape.rare, shape.common), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				intersectLinear(rare, common)
			}
		})
		b.Run(fmt.Sprintf("gallop/%dx%d", shape.rare, shape.common), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				intersectGallop(rare, common)
			}
		})
	}
}

// BenchmarkContainsAllSkewed measures the end-to-end win: one rare token
// ("needle", on a handful of nodes) ANDed with one common token ("common",
// on every record).  intersect dispatches to galloping for this skew.
func BenchmarkContainsAllSkewed(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 20000; i++ {
		if i%2000 == 0 {
			fmt.Fprintf(&sb, "<a>needle common f%d</a>", i)
		} else {
			fmt.Fprintf(&sb, "<a>common filler f%d</a>", i)
		}
	}
	sb.WriteString("</r>")
	d, err := doc.FromString("bench", sb.String())
	if err != nil {
		b.Fatal(err)
	}
	ix := Build(d)
	want := len(ix.ContainsAll("needle common"))
	if want != 10 {
		b.Fatalf("sanity: %d matches, want 10", want)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.ContainsAll("needle common")
	}
}

// BenchmarkBuild measures the raw index build — streams, postings, exact
// map and the per-tag value tries — over each synthetic dataset at the scale
// the live-server benchmark serves (docs/PERFORMANCE.md, "Start-up").
func BenchmarkBuild(b *testing.B) {
	for _, k := range dataset.Kinds {
		d, err := dataset.Build(k, 20, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Build(d)
			}
		})
	}
}

// BenchmarkPersist measures both sides of an index file per dataset at the
// live benchmark's scale: save writes the file (SaveDocument), open reads
// it back and builds the index (LoadDocument, then Build).  file-MB is the
// file's size.
func BenchmarkPersist(b *testing.B) {
	for _, k := range dataset.Kinds {
		d, err := dataset.Build(k, 20, 42)
		if err != nil {
			b.Fatal(err)
		}
		var file bytes.Buffer
		if err := SaveDocument(&file, d); err != nil {
			b.Fatal(err)
		}
		size := float64(file.Len()) / (1 << 20)
		b.Run("save/"+string(k), func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := SaveDocument(&buf, d); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(size, "file-MB")
		})
		b.Run("open/"+string(k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := LoadDocument(bytes.NewReader(file.Bytes()))
				if err != nil {
					b.Fatal(err)
				}
				Build(d)
			}
		})
	}
}
