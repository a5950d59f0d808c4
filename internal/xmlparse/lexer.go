// Package xmlparse implements a from-scratch streaming XML pull parser.  It
// is the ingestion substrate of the LotusX reproduction: the document store
// consumes its event stream to assign positional labels in a single pass.
//
// The parser covers the XML subset relevant to data-centric documents:
// elements, attributes (single- or double-quoted), character data, CDATA
// sections, comments, processing instructions, an optional XML declaration
// and DOCTYPE (both skipped), and the five predefined entities plus decimal
// and hexadecimal character references.  It enforces well-formedness — tag
// balance, attribute uniqueness, name syntax — and reports errors with line
// and column positions.  DTD-defined entities and external references are
// out of scope (the paper's datasets do not need them).
//
// The parser scans spans, not bytes: it keeps a window of the source and
// finds the end of each construct in it with bytes.IndexByte, bytes.Index
// and a 256-entry byte class table, reading more only when a construct
// runs past the window.  Names are interned, character data is handed out
// as a slice of the window when it needs no decoding (see NextToken), and
// line and column are counted over consumed spans only when an event's
// position or an error asks for them.
package xmlparse

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// EventKind discriminates the events produced by the parser.
type EventKind uint8

const (
	// StartElement is the opening of an element; Name and Attrs are set.
	StartElement EventKind = iota
	// EndElement is the closing of an element; Name is set.
	EndElement
	// Text is character data (entity references resolved, CDATA included);
	// Value is set.  Whitespace-only text between elements is suppressed.
	Text
	// Comment is a <!-- --> comment; Value holds the comment body.
	Comment
	// ProcInst is a processing instruction; Name is the target and Value the
	// instruction body.
	ProcInst
)

func (k EventKind) String() string {
	switch k {
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case Text:
		return "Text"
	case Comment:
		return "Comment"
	case ProcInst:
		return "ProcInst"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Attr is a single attribute of a start element.
type Attr struct {
	Name  string
	Value string
}

// Event is one parse event.  Attrs aliases an internal buffer that is reused
// by the next call to Next; callers that retain attributes must copy them.
type Event struct {
	Kind  EventKind
	Name  string
	Value string
	Attrs []Attr
	Line  int // 1-based line of the event's first character
	Col   int // 1-based column (in runes) of the event's first character
}

// Token is an event as the parser holds it: no position, and its value a
// slice of the parser's window (or of its decoding buffer) instead of a
// string.  Value and Attrs are valid until the next call to NextToken or
// Next.  Name is interned: every occurrence of a name is the same string.
type Token struct {
	Kind  EventKind
	Name  string
	Value []byte
	Attrs []Attr
}

// SyntaxError describes a well-formedness violation with its position.
type SyntaxError struct {
	Line int
	Col  int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xmlparse: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// Parser is a pull parser over a byte source.  Create one with NewParser and
// call Next (or NextToken) until it returns io.EOF.  The first error is
// final: every later call returns it again.
type Parser struct {
	src  io.Reader
	buf  []byte // the window: buf[r:w] is buffered and unread
	r, w int
	base int   // source offset of buf[0]
	eof  bool  // src exhausted
	rerr error // src's read error, when it ended with one other than io.EOF
	err  error // the error every call returns once parsing has failed

	// line and col are the position of source offset mark; pos moves the
	// mark forward over consumed bytes.
	mark, line, col int

	stack   []string          // open element names
	names   map[string]string // interned names
	attrs   []Attr            // reusable attribute buffer
	seen    map[string]bool   // attribute names of a tag with many attributes
	scratch []byte            // decoded character data or attribute value

	tok      Token // the token step produced
	tokStart int   // source offset of its first byte
	rooted   bool

	// A self-closing tag queues its end event.
	pending            bool
	pendingName        string
	pendingOff         int
	rootedAfterPending bool
	bomChecked         bool

	// KeepWhitespace retains whitespace-only text events instead of
	// suppressing them.  Set before the first call to Next.
	KeepWhitespace bool
}

// NewParser returns a Parser reading from src.
func NewParser(src io.Reader) *Parser { return newParser(src, 64<<10) }

// newParser returns a Parser whose window starts at size bytes.
func newParser(src io.Reader, size int) *Parser {
	return &Parser{
		src:   src,
		buf:   make([]byte, size),
		line:  1,
		col:   1,
		names: make(map[string]string),
	}
}

// NewParserString returns a Parser over a string, convenient in tests.
func NewParserString(s string) *Parser { return NewParser(strings.NewReader(s)) }

// Depth returns the number of currently open elements.
func (p *Parser) Depth() int { return len(p.stack) }

// Offset returns how many bytes of the source have been consumed: the
// source offset just past the last token returned.
func (p *Parser) Offset() int { return p.base + p.r }

// more reads more of the source into the window, keeping every unread byte
// where the cursor offsets of the token being scanned still find it.  It
// reports false once the source is exhausted.  A read error ends the source
// like EOF does; it is kept in rerr and reported instead of whatever the
// truncated input would have been.
func (p *Parser) more() bool {
	if p.eof {
		return false
	}
	if len(p.buf)-p.w <= len(p.buf)/4 {
		keep := p.w - p.r
		p.pos(p.base + p.r) // count what is about to be dropped
		buf := p.buf
		if keep > len(buf)/2 {
			buf = make([]byte, 2*len(buf))
		}
		copy(buf, p.buf[p.r:p.w])
		p.buf, p.base, p.r, p.w = buf, p.base+p.r, 0, keep
	}
	for empty := 0; empty < 100; empty++ {
		n, err := p.src.Read(p.buf[p.w:])
		p.w += n
		if err != nil {
			p.eof = true
			if err != io.EOF {
				p.rerr = err
			}
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	p.eof, p.rerr = true, io.ErrNoProgress
	return false
}

// avail reports whether n bytes past the cursor are buffered, reading more
// of the source if they are not yet.
func (p *Parser) avail(n int) bool {
	for p.w-p.r < n {
		if !p.more() {
			return false
		}
	}
	return true
}

// at returns the byte at offset i from the cursor, or false at the end of
// the input.
func (p *Parser) at(i int) (byte, bool) {
	if !p.avail(i + 1) {
		return 0, false
	}
	return p.buf[p.r+i], true
}

// hasAt reports whether the input at offset i from the cursor starts with s.
func (p *Parser) hasAt(i int, s string) bool {
	return p.avail(i+len(s)) && string(p.buf[p.r+i:p.r+i+len(s)]) == s
}

// end is the cursor offset of the end of the input, once more has failed.
func (p *Parser) end() int { return p.w - p.r }

// pos returns the line and column of source offset off, counting newlines
// and runes over the bytes between the mark and off.  Offsets are asked
// for in increasing order, and never for a byte already dropped from the
// window.  A column counts every byte that is not a UTF-8 continuation
// byte, invalid ones included.
func (p *Parser) pos(off int) (line, col int) {
	if off > p.mark {
		span := p.buf[p.mark-p.base : off-p.base]
		if nl := bytes.LastIndexByte(span, '\n'); nl >= 0 {
			p.line += bytes.Count(span[:nl], newline) + 1
			p.col = 1
			span = span[nl+1:]
		}
		for _, c := range span {
			if c&0xC0 != 0x80 {
				p.col++
			}
		}
		p.mark = off
	}
	return p.line, p.col
}

var newline = []byte{'\n'}

// fail returns a SyntaxError at offset i from the cursor — or, when the
// source failed, that read error, since the input it saw was cut short.
// Positions are those of the byte-at-a-time parser this one replaced (kept
// as the reference in test code): just past a byte it had to read to
// reject, such as a misplaced one where '=' or '>' belongs, and at a byte
// it only peeked at.
func (p *Parser) fail(i int, format string, args ...any) error {
	if p.rerr != nil {
		return p.readError()
	}
	line, col := p.pos(p.base + p.r + i)
	return &SyntaxError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

// readError wraps the source's read error with where reading stopped.
func (p *Parser) readError() error {
	line, col := p.pos(p.base + p.w)
	return fmt.Errorf("xmlparse: line %d col %d: reading input: %w", line, col, p.rerr)
}

// Byte classes: which constructs a byte continues or ends.
const (
	cSpace     = 1 << iota // XML whitespace
	cNameStart             // may begin a name
	cName                  // may continue a name
	cTextStop              // ends a run of plain character data
	cAttrStop              // ends a run of a plain attribute value
)

var class = func() (t [256]uint8) {
	for _, c := range " \t\r\n" {
		t[c] |= cSpace
	}
	// Multi-byte UTF-8 lead and continuation bytes are accepted wholesale:
	// full Unicode name classes are overkill for the target datasets.
	for c := 0; c < 256; c++ {
		if c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80 {
			t[c] |= cNameStart | cName
		}
		if c == '-' || c == '.' || (c >= '0' && c <= '9') {
			t[c] |= cName
		}
		if c < 0x20 && t[c]&cSpace == 0 {
			t[c] |= cTextStop | cAttrStop
		}
	}
	for _, c := range "<&]" {
		t[c] |= cTextStop
	}
	for _, c := range "<&\"'\t\r\n" {
		t[c] |= cAttrStop
	}
	return t
}()

// skipSpace returns the offset of the first non-space byte at or after i.
func (p *Parser) skipSpace(i int) int {
	for {
		for b := p.buf[p.r:p.w]; i < len(b); i++ {
			if class[b[i]]&cSpace == 0 {
				return i
			}
		}
		if !p.more() {
			return i
		}
	}
}

// name reads the XML name at offset i and returns it interned, with the
// offset just past it.
func (p *Parser) name(i int) (string, int, error) {
	j, err := p.nameEnd(i)
	if err != nil {
		return "", 0, err
	}
	return p.intern(p.buf[p.r+i : p.r+j]), j, nil
}

// nameEnd returns the offset just past the XML name at offset i.
func (p *Parser) nameEnd(i int) (int, error) {
	c, ok := p.at(i)
	if !ok || class[c]&cNameStart == 0 {
		return 0, p.fail(min(i, p.end()), "expected a name")
	}
	j := i + 1
	for {
		for b := p.buf[p.r:p.w]; j < len(b); j++ {
			if class[b[j]]&cName == 0 {
				return j, nil
			}
		}
		if !p.more() {
			return j, nil
		}
	}
}

// intern returns the one string the parser keeps for the name b.
func (p *Parser) intern(b []byte) string {
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	s := string(b)
	p.names[s] = s
	return s
}

// maxRefBody bounds the body of an entity or character reference.
const maxRefBody = 11

// reference expands the entity or character reference whose body starts at
// offset i (just past its '&'), appending the expansion to dst, and returns
// the offset just past its ';'.
func (p *Parser) reference(i int, dst []byte) ([]byte, int, error) {
	n := 0
	for ; ; n++ {
		c, ok := p.at(i + n)
		if !ok {
			return dst, 0, p.fail(p.end(), "unterminated entity reference")
		}
		if c == ';' {
			break
		}
		if n >= maxRefBody {
			return dst, 0, p.fail(i+n+1, "entity reference too long")
		}
	}
	body := p.buf[p.r+i : p.r+i+n]
	next := i + n + 1
	switch string(body) {
	case "lt":
		return append(dst, '<'), next, nil
	case "gt":
		return append(dst, '>'), next, nil
	case "amp":
		return append(dst, '&'), next, nil
	case "apos":
		return append(dst, '\''), next, nil
	case "quot":
		return append(dst, '"'), next, nil
	}
	if len(body) > 1 && body[0] == '#' {
		r, ok := resolveCharRef(string(body[1:]))
		if !ok {
			return dst, 0, p.fail(next, "invalid character reference &%s;", body)
		}
		return utf8.AppendRune(dst, r), next, nil
	}
	return dst, 0, p.fail(next, "unknown entity &%s;", body)
}

// resolveCharRef decodes the body of a &#...; reference.
func resolveCharRef(body string) (rune, bool) {
	var n uint32
	if strings.HasPrefix(body, "x") || strings.HasPrefix(body, "X") {
		hex := body[1:]
		if hex == "" {
			return 0, false
		}
		for i := 0; i < len(hex); i++ {
			c := hex[i]
			var d uint32
			switch {
			case c >= '0' && c <= '9':
				d = uint32(c - '0')
			case c >= 'a' && c <= 'f':
				d = uint32(c-'a') + 10
			case c >= 'A' && c <= 'F':
				d = uint32(c-'A') + 10
			default:
				return 0, false
			}
			n = n*16 + d
			if n > utf8.MaxRune {
				return 0, false
			}
		}
	} else {
		if body == "" {
			return 0, false
		}
		for i := 0; i < len(body); i++ {
			c := body[i]
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + uint32(c-'0')
			if n > utf8.MaxRune {
				return 0, false
			}
		}
	}
	r := rune(n)
	if !isValidXMLChar(r) {
		return 0, false
	}
	return r, true
}

// isValidXMLChar reports whether r is a legal XML 1.0 character (§2.2):
// tab, LF, CR, and everything from space up, minus surrogates (which
// utf8.ValidRune rejects) and the two non-characters U+FFFE/U+FFFF.
func isValidXMLChar(r rune) bool {
	if !utf8.ValidRune(r) {
		return false
	}
	switch {
	case r == '\t' || r == '\n' || r == '\r':
		return true
	case r < 0x20:
		return false
	case r == 0xFFFE || r == 0xFFFF:
		return false
	}
	return true
}
