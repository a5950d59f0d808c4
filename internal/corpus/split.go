package corpus

import (
	"fmt"
	"io"
	"strings"

	"lotusx/internal/doc"
)

// Record splitting: a large document becomes several shard documents by
// cutting at record boundaries.  Records are the element children of the
// document root (dblp's entries, TreeBank's sentences); when the root has
// fewer children than the requested parts — XMark's <site> holds just four
// container elements — the split descends one level, treating each
// container's element children as records and replicating the container
// element itself around its records in every shard that holds some.  Each
// record subtree is self-contained, so a twig query evaluated per shard and
// merged sees exactly the matches it would have seen on the whole document
// for output nodes at or below record level (matches output at the root or
// a replicated container duplicate per shard — the inherent sharding
// caveat).

// xmlEscaper escapes attribute and text content when re-wrapping records.
var xmlEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;",
)

// record is one splittable unit with its optional depth-1 container.
type record struct {
	node      doc.NodeID
	container doc.NodeID // doc.None for direct children of the root
	// first marks the container's first record, which carries the
	// container's direct text.
	first bool
}

// SplitDocument partitions d's records into at most parts contiguous groups
// of roughly equal node count, re-wrapping each group under a copy of the
// root element (root attributes are replicated; direct root text, rare in
// record-oriented data, travels with the first part).  It returns fewer
// than parts documents when there are fewer records.  parts <= 1, or a
// document with a single record, returns d itself unsplit.
func SplitDocument(d *doc.Document, parts int) ([]*doc.Document, error) {
	plan := planSplit(d, parts)
	if plan == nil {
		return []*doc.Document{d}, nil
	}
	out := make([]*doc.Document, len(plan.groups))
	for i := range out {
		sd, err := plan.part(i)
		if err != nil {
			return nil, err
		}
		out[i] = sd
	}
	return out, nil
}

// splitPlan is the cheap half of a split — which records go to which part.
// Rendering and re-parsing a part (the expensive half) reads only the
// immutable source document, so parts may be produced concurrently.
type splitPlan struct {
	d      *doc.Document
	attrs  []doc.NodeID // root attribute children, replicated on every part
	groups [][]record   // the records of each part, in document order
}

// planSplit partitions d's records as SplitDocument describes; nil means d
// stays unsplit.
func planSplit(d *doc.Document, parts int) *splitPlan {
	if parts <= 1 {
		return nil
	}
	root := d.Root()

	var level1 []doc.NodeID // element children of the root, document order
	var attrs []doc.NodeID
	for c := d.FirstChild(root); c != doc.None; c = d.NextSibling(c) {
		if d.Kind(c) == doc.Attribute {
			attrs = append(attrs, c)
		} else {
			level1 = append(level1, c)
		}
	}

	records := make([]record, 0, len(level1))
	for _, c := range level1 {
		records = append(records, record{node: c, container: doc.None})
	}
	if len(records) < parts {
		// Too few top-level records: descend one level through containers.
		expanded := make([]record, 0, len(records)*4)
		for _, r := range records {
			var inner []doc.NodeID
			for c := d.FirstChild(r.node); c != doc.None; c = d.NextSibling(c) {
				if d.Kind(c) != doc.Attribute {
					inner = append(inner, c)
				}
			}
			if len(inner) == 0 {
				expanded = append(expanded, r) // leaf record: keep as-is
				continue
			}
			for i, c := range inner {
				expanded = append(expanded, record{node: c, container: r.node, first: i == 0})
			}
		}
		records = expanded
	}
	if len(records) <= 1 {
		return nil
	}
	if parts > len(records) {
		parts = len(records)
	}

	// Contiguous partition balanced by subtree size, so shards carry
	// comparable evaluation work whatever the record-size skew.
	sizes := make([]int, len(records))
	total := 0
	for i, r := range records {
		sizes[i] = d.SubtreeSize(r.node)
		total += sizes[i]
	}
	target := float64(total) / float64(parts)

	plan := &splitPlan{d: d, attrs: attrs}
	start := 0
	acc := 0
	for i := range records {
		acc += sizes[i]
		remainingParts := parts - len(plan.groups) - 1
		if remainingParts == 0 {
			break // the last part takes everything left
		}
		// Cut when the running group reached its share — but never cut so
		// late that the outstanding parts cannot get one record each.
		cut := float64(acc) >= target && len(records)-(i+1) >= remainingParts
		if !cut && len(records)-(i+1) == remainingParts {
			cut = true
		}
		if cut {
			plan.groups = append(plan.groups, records[start:i+1])
			start = i + 1
			acc = 0
		}
	}
	plan.groups = append(plan.groups, records[start:])
	return plan
}

// SplitReader parses XML from r and splits it into parts shard documents;
// see SplitDocument.
func SplitReader(name string, r io.Reader, parts int) ([]*doc.Document, error) {
	d, err := doc.FromReader(name, r)
	if err != nil {
		return nil, err
	}
	return SplitDocument(d, parts)
}

// openTag renders n's start tag with its attribute children.
func openTag(d *doc.Document, b *strings.Builder, n doc.NodeID) {
	b.WriteByte('<')
	b.WriteString(d.TagName(n))
	for c := d.FirstChild(n); c != doc.None; c = d.NextSibling(c) {
		if d.Kind(c) != doc.Attribute {
			continue
		}
		b.WriteByte(' ')
		b.WriteString(d.TagName(c)[1:]) // strip '@'
		b.WriteString(`="`)
		xmlEscaper.WriteString(b, d.Value(c))
		b.WriteByte('"')
	}
	b.WriteByte('>')
	b.WriteByte('\n')
}

// part renders the records of part number part — re-opening their
// containers as the group crosses container boundaries — under a copy of the
// root element and re-parses the fragment into a standalone document.
func (p *splitPlan) part(part int) (*doc.Document, error) {
	d, attrs, records := p.d, p.attrs, p.groups[part]
	if len(records) == 0 {
		return nil, fmt.Errorf("corpus: split produced an empty part %d", part)
	}
	root := d.Root()
	var b strings.Builder
	b.WriteByte('<')
	b.WriteString(d.TagName(root))
	for _, a := range attrs {
		b.WriteByte(' ')
		b.WriteString(d.TagName(a)[1:]) // strip '@'
		b.WriteString(`="`)
		xmlEscaper.WriteString(&b, d.Value(a))
		b.WriteByte('"')
	}
	b.WriteString(">\n")
	if part == 0 && d.Value(root) != "" {
		xmlEscaper.WriteString(&b, d.Value(root))
		b.WriteByte('\n')
	}
	container := doc.None
	closeContainer := func() {
		if container != doc.None {
			b.WriteString("</")
			b.WriteString(d.TagName(container))
			b.WriteString(">\n")
		}
	}
	for _, rec := range records {
		if rec.container != container {
			closeContainer()
			container = rec.container
			if container != doc.None {
				openTag(d, &b, container)
				// The container's direct text travels with its first record
				// so it appears exactly once across all parts.
				if rec.first && d.Value(container) != "" {
					xmlEscaper.WriteString(&b, d.Value(container))
					b.WriteByte('\n')
				}
			}
		}
		if err := d.WriteXML(&b, rec.node); err != nil {
			return nil, err
		}
	}
	closeContainer()
	b.WriteString("</")
	b.WriteString(d.TagName(root))
	b.WriteString(">\n")

	name := fmt.Sprintf("%s#%d", d.Name(), part)
	sd, err := doc.FromReader(name, strings.NewReader(b.String()))
	if err != nil {
		return nil, fmt.Errorf("corpus: re-parsing split part %d: %w", part, err)
	}
	return sd, nil
}
