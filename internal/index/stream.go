package index

import (
	"lotusx/internal/doc"
	"lotusx/internal/labeling"
)

// Stream is a document-order cursor over a node list, the input shape of
// every structural-join algorithm.  Streams are cheap value-like cursors
// over shared immutable lists; Clone gives an independent cursor.
type Stream struct {
	d     *doc.Document
	nodes []doc.NodeID
	pos   int
}

// NewStream wraps a document-order node list in a cursor.
func NewStream(d *doc.Document, nodes []doc.NodeID) *Stream {
	return &Stream{d: d, nodes: nodes}
}

// EOF reports whether the cursor is exhausted.
func (s *Stream) EOF() bool { return s.pos >= len(s.nodes) }

// Head returns the current node; it panics past EOF (join algorithms always
// guard with EOF).
func (s *Stream) Head() doc.NodeID { return s.nodes[s.pos] }

// Region returns the current node's containment label.
func (s *Stream) Region() labeling.Region { return s.d.Region(s.nodes[s.pos]) }

// Advance moves to the next node.
func (s *Stream) Advance() { s.pos++ }

// Len returns the total number of nodes in the stream.
func (s *Stream) Len() int { return len(s.nodes) }

// Remaining returns how many nodes are at or after the cursor.
func (s *Stream) Remaining() int { return len(s.nodes) - s.pos }

// Clone returns an independent cursor at the same position.
func (s *Stream) Clone() *Stream { c := *s; return &c }

// Reset rewinds the cursor to the first node.
func (s *Stream) Reset() { s.pos = 0 }

// Stream returns a cursor over all nodes with the given tag.
func (ix *Index) Stream(tag doc.TagID) *Stream {
	return NewStream(ix.document, ix.Nodes(tag))
}

// FilteredStream materializes the sub-list of tag's nodes satisfying keep
// and returns a cursor over it.  This is how value predicates are pushed
// below the joins.
func (ix *Index) FilteredStream(tag doc.TagID, keep func(doc.NodeID) bool) *Stream {
	var out []doc.NodeID
	for _, n := range ix.Nodes(tag) {
		if keep(n) {
			out = append(out, n)
		}
	}
	return NewStream(ix.document, out)
}

// AllElements returns all element-kind nodes in document order, the stream
// of a wildcard query node.  The list is computed on first use and cached;
// callers must not modify it.
func (ix *Index) AllElements() []doc.NodeID {
	ix.allElemInit.Do(func() {
		for i := 0; i < ix.document.Len(); i++ {
			n := doc.NodeID(i)
			if ix.document.Kind(n) == doc.Element {
				ix.allElems = append(ix.allElems, n)
			}
		}
	})
	return ix.allElems
}

// WildcardStream returns a cursor over every element node.
func (ix *Index) WildcardStream() *Stream {
	return NewStream(ix.document, ix.AllElements())
}
