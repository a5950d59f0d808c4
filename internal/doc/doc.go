// Package doc implements the in-memory XML document store used by all LotusX
// indexes.  A Document is built in a single streaming pass (see Builder) over
// the parser's events or over the nodes of other documents: every element
// and attribute becomes a node with a containment region label and a Dewey
// label, attributes are modeled as children tagged "@name" (the convention of
// the twig-join literature, so query predicates treat them uniformly), and
// each node's value is the concatenation of its direct text children.
package doc

import (
	"bytes"
	"io"
	"io/fs"
	"strings"

	"lotusx/internal/labeling"
	"lotusx/internal/xmlparse"
)

// NodeID identifies a node within its Document.  Node IDs are assigned in
// document order: NodeID(i) is the i-th node in preorder.
type NodeID int32

// None is the NodeID used where no node applies (e.g. the root's parent).
const None NodeID = -1

// TagID is an interned tag name.  Attribute tags carry a leading '@'.
type TagID int32

// NoTag is returned by TagDict.ID for names that do not occur in the
// document.
const NoTag TagID = -1

// Kind discriminates node kinds.
type Kind uint8

const (
	// Element is an XML element node.
	Element Kind = iota
	// Attribute is an attribute node, tagged "@name", holding the attribute
	// value.
	Attribute
)

// TagDict interns tag names.  It is immutable after the owning Document is
// built and safe for concurrent readers.
type TagDict struct {
	byName map[string]TagID
	names  []string
}

func newTagDict() *TagDict {
	return &TagDict{byName: make(map[string]TagID)}
}

func (d *TagDict) intern(name string) TagID {
	if id, ok := d.byName[name]; ok {
		return id
	}
	id := TagID(len(d.names))
	d.names = append(d.names, name)
	d.byName[name] = id
	return id
}

// ID returns the TagID of name, or NoTag if the name never occurs.
func (d *TagDict) ID(name string) TagID {
	if id, ok := d.byName[name]; ok {
		return id
	}
	return NoTag
}

// Name returns the name of tag id.
func (d *TagDict) Name(id TagID) string { return d.names[id] }

// Len returns the number of distinct tags.
func (d *TagDict) Len() int { return len(d.names) }

// node is the per-node record.  Child links let the server render subtrees
// without scanning; parent links let ranking walk upward.
type node struct {
	tag         TagID
	kind        Kind
	region      labeling.Region
	parent      NodeID
	firstChild  NodeID
	nextSibling NodeID
}

// Document is an immutable labeled XML document.
type Document struct {
	name   string
	tags   *TagDict
	nodes  []node
	values []string // direct-text value per node; "" when absent
	dewey  *labeling.DeweyArena
}

// Name returns the document's name (typically the source file name).
func (d *Document) Name() string { return d.name }

// Tags returns the document's tag dictionary.
func (d *Document) Tags() *TagDict { return d.tags }

// Len returns the number of nodes.
func (d *Document) Len() int { return len(d.nodes) }

// Root returns the document root element.
func (d *Document) Root() NodeID { return 0 }

// Tag returns the tag of node n.
func (d *Document) Tag(n NodeID) TagID { return d.nodes[n].tag }

// TagName returns the tag name of node n.
func (d *Document) TagName(n NodeID) string { return d.tags.Name(d.nodes[n].tag) }

// Kind returns the kind of node n.
func (d *Document) Kind(n NodeID) Kind { return d.nodes[n].kind }

// Region returns the containment label of node n.
func (d *Document) Region(n NodeID) labeling.Region { return d.nodes[n].region }

// Dewey returns the Dewey label of node n.  The result aliases internal
// storage and must not be modified.
func (d *Document) Dewey(n NodeID) labeling.Dewey { return d.dewey.At(int32(n)) }

// Parent returns the parent of node n, or None for the root.
func (d *Document) Parent(n NodeID) NodeID { return d.nodes[n].parent }

// Value returns the node's own text value: for elements, the concatenated
// direct text children (whitespace-trimmed); for attributes, the attribute
// value.
func (d *Document) Value(n NodeID) string { return d.values[n] }

// Children returns the children of node n in document order, appended to
// dst.
func (d *Document) Children(n NodeID, dst []NodeID) []NodeID {
	for c := d.nodes[n].firstChild; c != None; c = d.nodes[c].nextSibling {
		dst = append(dst, c)
	}
	return dst
}

// FirstChild returns n's first child, or None.
func (d *Document) FirstChild(n NodeID) NodeID { return d.nodes[n].firstChild }

// NextSibling returns n's next sibling, or None.
func (d *Document) NextSibling(n NodeID) NodeID { return d.nodes[n].nextSibling }

// IsAncestor reports whether a is a proper ancestor of b.
func (d *Document) IsAncestor(a, b NodeID) bool {
	return d.nodes[a].region.IsAncestor(d.nodes[b].region)
}

// SubtreeSize returns the number of nodes in n's subtree, n included.
// Because IDs are preorder, a subtree is a contiguous ID range.
func (d *Document) SubtreeSize(n NodeID) int {
	end := d.nodes[n].region.End
	i := int(n) + 1
	for i < len(d.nodes) && d.nodes[i].region.Start < end {
		i++
	}
	return i - int(n)
}

// Path returns the tag-name path from the root to n, e.g.
// "/dblp/article/author".
func (d *Document) Path(n NodeID) string {
	var parts []string
	for cur := n; cur != None; cur = d.nodes[cur].parent {
		parts = append(parts, d.TagName(cur))
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	return b.String()
}

// FromReader parses src into a Document named name.
func FromReader(name string, src io.Reader) (*Document, error) {
	// An in-memory source or a file knows its length.  The node arrays
	// start sized for a sample of it; once the sample is parsed they are
	// grown once to what its density of nodes and Dewey digits predicts for
	// the whole source, instead of regrowing a dozen times on the way.
	total := sourceLen(src)
	b := NewBuilder(name, 1024+min(total, sampleBytes)/minBytesPerNode)
	sized := total < 2*sampleBytes
	p := xmlparse.NewParser(src)
	for {
		t, err := p.NextToken()
		if err == io.EOF {
			return b.Done()
		}
		if err != nil {
			return nil, err
		}
		switch t.Kind {
		case xmlparse.StartElement:
			b.Start(t.Name, t.Attrs)
		case xmlparse.EndElement:
			b.End()
		case xmlparse.Text:
			addText(b, bytes.TrimSpace(t.Value))
		case xmlparse.Comment, xmlparse.ProcInst:
			// Comments and PIs carry no query-relevant content.
		}
		if !sized && p.Offset() >= sampleBytes {
			sized = true
			b.reserve(p.Offset(), total)
		}
	}
}

// sourceLen returns the length of src when it knows it, or 0.
func sourceLen(src io.Reader) int {
	switch s := src.(type) {
	case interface{ Len() int }:
		return s.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := s.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size())
		}
	}
	return 0
}

// sampleBytes is how much of an in-memory source FromReader parses before
// sizing the document from it.  minBytesPerNode is the density the first
// allocation is made for: record data spends about 30 bytes per node,
// TreeBank's deep markup 12.
const (
	sampleBytes     = 64 << 10
	minBytesPerNode = 8
)

// FromString parses src into a Document, convenient in tests.
func FromString(name, src string) (*Document, error) {
	return FromReader(name, strings.NewReader(src))
}

// fit gives back what a too-high size hint reserved: s moves to an array of
// its own length unless its slack is within what append growth leaves anyway.
func fit[T any](s []T) []T {
	if cap(s)-len(s) <= len(s)/4 {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}
