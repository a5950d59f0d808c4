package doc

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"lotusx/internal/labeling"
)

// Binary layout (all integers little-endian):
//
//	magic "LTXD" | version u32 | name | tag dict | node table | values | dewey
//
// Strings are u32 length + bytes.  The format is a cache, not an exchange
// format: Load rejects any version other than the one Save writes.
const (
	docMagic   = "LTXD"
	docVersion = 1
)

// countingWriter and reader keep their integer buffer in the struct: a
// local array whose slice reaches an io.Writer or io.Reader escapes, one
// heap allocation per integer.
type countingWriter struct {
	w   *bufio.Writer
	err error
	b   [4]byte
}

func (cw *countingWriter) u32(v uint32) {
	if cw.err != nil {
		return
	}
	binary.LittleEndian.PutUint32(cw.b[:], v)
	_, cw.err = cw.w.Write(cw.b[:])
}

func (cw *countingWriter) i32(v int32) { cw.u32(uint32(v)) }

func (cw *countingWriter) str(s string) {
	cw.u32(uint32(len(s)))
	if cw.err != nil {
		return
	}
	_, cw.err = cw.w.WriteString(s)
}

type reader struct {
	r   *bufio.Reader
	err error
	b   [4]byte
}

func (rd *reader) u32() uint32 {
	if rd.err != nil {
		return 0
	}
	if _, err := io.ReadFull(rd.r, rd.b[:]); err != nil {
		rd.err = err
		return 0
	}
	return binary.LittleEndian.Uint32(rd.b[:])
}

func (rd *reader) i32() int32 { return int32(rd.u32()) }

func (rd *reader) str() string {
	n := rd.u32()
	if rd.err != nil {
		return ""
	}
	if n > 1<<30 {
		rd.err = fmt.Errorf("doc: corrupt string length %d", n)
		return ""
	}
	// A string that fits the read buffer is copied out of it: one
	// allocation, and none for an empty string.
	if int(n) <= rd.r.Size() {
		p, err := rd.r.Peek(int(n))
		if err != nil {
			rd.err = err
			return ""
		}
		s := string(p)
		_, _ = rd.r.Discard(len(p)) // cannot fail: Peek buffered the bytes
		return s
	}
	// Past the buffer the string grows as its bytes arrive: a corrupt length
	// must not claim memory the input does not hold.
	var b strings.Builder
	b.Grow(int(min(n, 1<<16)))
	if _, err := io.CopyN(&b, rd.r, int64(n)); err != nil {
		rd.err = err
		return ""
	}
	return b.String()
}

// Save writes the document in its binary cache format.
func (d *Document) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &countingWriter{w: bw}
	if _, err := bw.WriteString(docMagic); err != nil {
		return err
	}
	cw.u32(docVersion)
	cw.str(d.name)

	cw.u32(uint32(d.tags.Len()))
	for _, name := range d.tags.names {
		cw.str(name)
	}

	cw.u32(uint32(len(d.nodes)))
	for i := range d.nodes {
		n := &d.nodes[i]
		cw.i32(int32(n.tag))
		cw.u32(uint32(n.kind))
		cw.i32(n.region.Start)
		cw.i32(n.region.End)
		cw.i32(n.region.Level)
		cw.i32(int32(n.parent))
		cw.i32(int32(n.firstChild))
		cw.i32(int32(n.nextSibling))
	}
	for _, v := range d.values {
		cw.str(v)
	}
	for i := range d.nodes {
		dl := d.dewey.At(int32(i))
		cw.u32(uint32(len(dl)))
		for _, digit := range dl {
			cw.i32(digit)
		}
	}
	if cw.err != nil {
		return cw.err
	}
	return bw.Flush()
}

// Load reads a document previously written by Save.  It trusts no count or
// length in its input: arrays grow only as the records they hold arrive, and
// a tag, kind or link out of range is an error, so a damaged file costs no
// more memory than it is long and cannot make a later query panic.
func Load(r io.Reader) (*Document, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(docMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("doc: reading magic: %w", err)
	}
	if string(magic) != docMagic {
		return nil, fmt.Errorf("doc: bad magic %q", magic)
	}
	rd := &reader{r: br}
	if v := rd.u32(); v != docVersion && rd.err == nil {
		return nil, fmt.Errorf("doc: unsupported version %d", v)
	}
	d := &Document{tags: newTagDict()}
	d.name = rd.str()

	ntags := rd.u32()
	for i := uint32(0); i < ntags && rd.err == nil; i++ {
		d.tags.intern(rd.str())
	}
	if rd.err == nil && d.tags.Len() != int(ntags) {
		return nil, fmt.Errorf("doc: corrupt tag dictionary: %d distinct names of %d", d.tags.Len(), ntags)
	}

	nnodes := rd.u32()
	if rd.err == nil && (nnodes == 0 || nnodes > 1<<28) {
		return nil, fmt.Errorf("doc: corrupt node count %d", nnodes)
	}
	const chunk = 1 << 12 // the first allocation a node count may claim
	d.nodes = make([]node, 0, min(nnodes, chunk))
	for i := uint32(0); i < nnodes && rd.err == nil; i++ {
		tag, kind := TagID(rd.i32()), rd.u32()
		if kind > uint32(Attribute) {
			return nil, fmt.Errorf("doc: corrupt kind %d of node %d", kind, i)
		}
		d.nodes = append(d.nodes, node{
			tag:         tag,
			kind:        Kind(kind),
			region:      labeling.Region{Start: rd.i32(), End: rd.i32(), Level: rd.i32()},
			parent:      NodeID(rd.i32()),
			firstChild:  NodeID(rd.i32()),
			nextSibling: NodeID(rd.i32()),
		})
	}
	if rd.err == nil {
		if err := d.checkNodes(); err != nil {
			return nil, err
		}
	}
	d.values = make([]string, 0, len(d.nodes))
	for range d.nodes {
		d.values = append(d.values, rd.str())
	}
	d.dewey = labeling.NewDeweyArena(len(d.nodes), 6)
	scratch := make(labeling.Dewey, 0, 16)
	for range d.nodes {
		ln := rd.u32()
		if rd.err != nil {
			break
		}
		if ln > 1<<20 {
			return nil, fmt.Errorf("doc: corrupt dewey length %d", ln)
		}
		scratch = scratch[:0]
		for j := uint32(0); j < ln && rd.err == nil; j++ {
			scratch = append(scratch, rd.i32())
		}
		d.dewey.Append(scratch)
	}
	if rd.err != nil {
		return nil, fmt.Errorf("doc: load: %w", rd.err)
	}
	d.nodes = fit(d.nodes)
	d.dewey.Fit()
	return d, nil
}

// checkNodes validates the node table Load read: every tag interned, every
// link a node ID in preorder — a parent before its child, a first child or
// next sibling after it — and every child list made of its owner's children.
// So the links form one tree: no walk over them loops or meets a node twice.
func (d *Document) checkNodes() error {
	// owned reports whether l is a node after id whose parent is p.
	owned := func(l, id, p NodeID) bool {
		return l > id && int(l) < len(d.nodes) && d.nodes[l].parent == p
	}
	for i := range d.nodes {
		n, id := &d.nodes[i], NodeID(i)
		if n.tag < 0 || int(n.tag) >= d.tags.Len() ||
			n.parent < None || n.parent >= id ||
			(n.firstChild != None && !owned(n.firstChild, id, id)) ||
			(n.nextSibling != None && !owned(n.nextSibling, id, n.parent)) {
			return fmt.Errorf("doc: corrupt node %d", i)
		}
	}
	return nil
}
