package corpus

import (
	"fmt"

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

// record is one splittable unit with its optional depth-1 container.
type record struct {
	node      doc.NodeID
	container doc.NodeID // doc.None for direct children of the root
	size      int        // the record's subtree size
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

// SplitPart builds part i of SplitDocument(d, parts) alone.
func SplitPart(d *doc.Document, parts, i int) (*doc.Document, error) {
	plan := planSplit(d, parts)
	n := 1
	if plan != nil {
		n = len(plan.groups)
	}
	if i < 0 || i >= n {
		return nil, fmt.Errorf("corpus: %s splits into %d part(s), not %d", d.Name(), n, i+1)
	}
	if plan == nil {
		return d, nil
	}
	return plan.part(i)
}

// splitPlan is the cheap half of a split — which records go to which part.
// Building a part (the expensive half) reads only the immutable source
// document, so parts may be built concurrently.
type splitPlan struct {
	d      *doc.Document
	groups [][]record // the records of each part, in document order
}

// planSplit partitions d's records as SplitDocument describes; nil means d
// stays unsplit.
func planSplit(d *doc.Document, parts int) *splitPlan {
	if parts <= 1 {
		return nil
	}
	root := d.Root()

	var level1 []doc.NodeID // element children of the root, document order
	for c := d.FirstChild(root); c != doc.None; c = d.NextSibling(c) {
		if d.Kind(c) == doc.Element {
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
	total := 0
	for i := range records {
		records[i].size = d.SubtreeSize(records[i].node)
		total += records[i].size
	}
	target := float64(total) / float64(parts)

	plan := &splitPlan{d: d}
	start := 0
	acc := 0
	for i := range records {
		acc += records[i].size
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

// part builds part number part from the source's node table: a copy of the
// root element with its attributes, then the part's records, re-opening
// their containers as the group crosses container boundaries.  Direct root
// text travels with part 0 and a container's with its first record, so each
// appears exactly once across all parts.
func (p *splitPlan) part(part int) (*doc.Document, error) {
	d, records := p.d, p.groups[part]
	if len(records) == 0 {
		return nil, fmt.Errorf("corpus: split produced an empty part %d", part)
	}
	root := d.Root()
	nodes := head(d, root)
	container := doc.None
	for _, rec := range records {
		if rec.container != container && rec.container != doc.None {
			nodes += head(d, rec.container)
		}
		container = rec.container
		nodes += rec.size
	}

	b := doc.NewBuilder(fmt.Sprintf("%s#%d", d.Name(), part), nodes)
	b.StartFrom(d, root)
	if part == 0 {
		b.Text(d.Value(root))
	}
	container = doc.None
	for _, rec := range records {
		if rec.container != container {
			if container != doc.None {
				b.End()
			}
			container = rec.container
			if container != doc.None {
				b.StartFrom(d, container)
				if rec.first {
					b.Text(d.Value(container))
				}
			}
		}
		b.Copy(d, rec.node)
	}
	if container != doc.None {
		b.End()
	}
	b.End()
	return b.Done()
}

// head counts the nodes StartFrom copies for element n: n and its attributes.
func head(d *doc.Document, n doc.NodeID) int {
	nodes := 1
	for c := d.FirstChild(n); c != doc.None; c = d.NextSibling(c) {
		if d.Kind(c) == doc.Attribute {
			nodes++
		}
	}
	return nodes
}
