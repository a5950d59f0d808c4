package doc

import (
	"bytes"
	"fmt"
	"slices"
	"strings"

	"lotusx/internal/labeling"
	"lotusx/internal/xmlparse"
)

// Builder assembles a Document node by node in document order.  It is fed
// either parse events — Start, Text, End; FromReader drives it from the XML
// parser — or nodes of existing documents: StartFrom opens a copy of an
// element, Copy replays a whole subtree.  So a document cut out of another or
// glued together from several (a shard part, a compacted shard) is built
// straight from their node tables, never printed and parsed again.  Either
// way the result is the document the parser would produce from the
// equivalent XML: the same nodes, values, labels and tag order.
type Builder struct {
	d    *Document
	ra   *labeling.Assigner
	da   *labeling.DeweyAssigner
	open []openElem // the open elements, innermost last
	text []byte     // direct text of the open elements, innermost last
	key  []byte     // scratch for an attribute's "@name" tag
}

// openElem is an element between its start and its end.
type openElem struct {
	id, lastChild NodeID
	text          int // where the element's direct text begins in Builder.text
}

// NewBuilder starts a document named name.  nodes is the node count the
// document will have, or an estimate; it sizes the node arrays.
func NewBuilder(name string, nodes int) *Builder {
	return &Builder{
		d: &Document{
			name:   name,
			tags:   newTagDict(),
			nodes:  make([]node, 0, nodes),
			values: make([]string, 0, nodes),
			dewey:  labeling.NewDeweyArena(nodes, 6),
		},
		ra: labeling.NewAssigner(),
		da: labeling.NewDeweyAssigner(),
	}
}

// Start opens an element with its attributes as a child of the innermost
// open element, or as the root.
func (b *Builder) Start(name string, attrs []xmlparse.Attr) {
	b.push(b.d.tags.intern(name), Element, "")
	for _, a := range attrs {
		b.key = append(append(b.key[:0], '@'), a.Name...)
		tag, ok := b.d.tags.byName[string(b.key)]
		if !ok {
			tag = b.d.tags.intern(string(b.key))
		}
		b.push(tag, Attribute, a.Value)
		b.End()
	}
}

// StartFrom opens a copy of src's element n with its attribute children —
// not its value, not its element children — as Start would.
func (b *Builder) StartFrom(src *Document, n NodeID) {
	b.push(b.d.tags.intern(src.TagName(n)), Element, "")
	for c := src.FirstChild(n); c != None; c = src.NextSibling(c) {
		if src.Kind(c) == Attribute {
			b.push(b.d.tags.intern(src.TagName(c)), Attribute, attrValue.Replace(src.Value(c)))
			b.End()
		}
	}
}

// Text adds a chunk of character data to the innermost open element's value.
// Chunks are trimmed and joined by one space, as the parser's text events
// are, so one that trims to nothing still adds a space after earlier text.
// Outside every element Text does nothing.
func (b *Builder) Text(s string) { addText(b, strings.TrimSpace(s)) }

// addText is Text over a chunk trimmed already; FromReader hands it a slice
// of the parser's window, which End copies into the value.
func addText[S ~string | ~[]byte](b *Builder, s S) {
	if len(b.open) == 0 {
		return
	}
	if len(b.text) > b.open[len(b.open)-1].text {
		b.text = append(b.text, ' ')
	}
	b.text = append(b.text, s...)
}

// End closes the innermost open element.
func (b *Builder) End() {
	top := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	b.d.nodes[top.id].region = b.ra.Leave()
	b.da.Leave()
	if len(b.text) > top.text {
		b.d.values[top.id] = string(bytes.TrimSpace(b.text[top.text:]))
		b.text = b.text[:top.text]
	}
}

// Copy replays src's element n with its whole subtree — attribute children,
// value, element children — as a child of the innermost open element.
// Values are shared with src, not copied.
func (b *Builder) Copy(src *Document, n NodeID) {
	b.StartFrom(src, n)
	for c := src.FirstChild(n); c != None; c = src.NextSibling(c) {
		if src.Kind(c) == Element {
			b.Copy(src, c)
		}
	}
	b.d.values[b.open[len(b.open)-1].id] = src.Value(n)
	b.End()
}

// reserve grows the node arrays and the Dewey arena once, by what the nodes
// built from the first consumed bytes of a total-byte source predict for the
// rest of it, with a little to spare; Done gives back what is left over.
// A source longer than it said only grows by append on the way.
func (b *Builder) reserve(consumed, total int) {
	more := func(n int) int { return max(0, n*(total-consumed)/consumed) + n/16 }
	nodes, digits := more(len(b.d.nodes)), more(b.d.dewey.Digits())
	b.d.nodes = slices.Grow(b.d.nodes, nodes)
	b.d.values = slices.Grow(b.d.values, nodes)
	b.d.dewey.Grow(nodes, digits)
}

// Done returns the document once its root element has ended.
func (b *Builder) Done() (*Document, error) {
	d := b.d
	if len(d.nodes) == 0 {
		return nil, fmt.Errorf("doc: %s: empty document", d.name)
	}
	d.nodes, d.values = fit(d.nodes), fit(d.values)
	d.dewey.Fit()
	return d, nil
}

// push appends a node as the last child of the innermost open element and
// opens it; an attribute is ended at once.
func (b *Builder) push(tag TagID, kind Kind, value string) {
	start, level := b.ra.Enter()
	id := NodeID(len(b.d.nodes))
	n := node{tag: tag, kind: kind, region: labeling.Region{Start: start, Level: level},
		parent: None, firstChild: None, nextSibling: None}
	if len(b.open) > 0 {
		top := &b.open[len(b.open)-1]
		n.parent = top.id
		if top.lastChild == None {
			b.d.nodes[top.id].firstChild = id
		} else {
			b.d.nodes[top.lastChild].nextSibling = id
		}
		top.lastChild = id
	}
	b.d.nodes = append(b.d.nodes, n)
	b.d.values = append(b.d.values, value)
	b.d.dewey.Append(b.da.Enter())
	b.open = append(b.open, openElem{id: id, lastChild: None, text: len(b.text)})
}

// attrValue maps an attribute value to what the parser reads back from its
// XML rendering.  Attribute-value normalization (XML 1.0 §3.3.3) turns a
// literal tab, newline or carriage return into a space; a stored value holds
// one only through a character reference, and the rendering carries it
// literally.
var attrValue = strings.NewReplacer("\t", " ", "\n", " ", "\r", " ")
