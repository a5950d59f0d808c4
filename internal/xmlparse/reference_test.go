package xmlparse

import (
	"fmt"
	"io"
	"strings"
)

// refParser is the byte-at-a-time parser the span scanner replaced: every
// byte goes through fill, peek and next, every name and text byte through a
// strings.Builder.  It stays as the reference the scanner must match, event
// for event and error for error.
type refParser struct {
	src  io.Reader
	buf  []byte
	r, w int  // read/write cursors into buf
	eof  bool // src exhausted

	line, col int // position of the next unread byte

	stack []string // open element names
	attrs []Attr   // reusable attribute buffer
	text  strings.Builder

	started bool // a root element has been seen
	rooted  bool // the root element has been closed

	pending            *Event // synthesized EndElement for a self-closing tag
	rootedAfterPending bool   // the pending end closes the root element
	bomChecked         bool   // a leading UTF-8 BOM has been looked for

	// KeepWhitespace retains whitespace-only text events instead of
	// suppressing them.  Set before the first call to Next.
	KeepWhitespace bool
}

// newRefParser returns a refParser reading from src.
func newRefParser(src io.Reader) *refParser {
	return &refParser{
		src:  src,
		buf:  make([]byte, 0, 64<<10),
		line: 1,
		col:  1,
	}
}

// Depth returns the number of currently open elements.
func (p *refParser) Depth() int { return len(p.stack) }

func (p *refParser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.line, Col: p.col, Msg: fmt.Sprintf(format, args...)}
}

// fill ensures at least n unread bytes are buffered, unless the source ends
// first.  It reports whether n bytes are available.
func (p *refParser) fill(n int) bool {
	for p.w-p.r < n && !p.eof {
		if p.r > 0 && p.r == p.w {
			p.r, p.w = 0, 0
			p.buf = p.buf[:0]
		}
		if cap(p.buf)-p.w < 4096 {
			nb := make([]byte, p.w-p.r, max(2*cap(p.buf), 8192))
			copy(nb, p.buf[p.r:p.w])
			p.w -= p.r
			p.r = 0
			p.buf = nb[:p.w]
		}
		chunk := p.buf[p.w:cap(p.buf)]
		m, err := p.src.Read(chunk)
		p.buf = p.buf[:p.w+m]
		p.w += m
		if err == io.EOF {
			p.eof = true
		} else if err != nil {
			p.eof = true // surface read errors as truncation
		}
	}
	return p.w-p.r >= n
}

// peek returns the next unread byte without consuming it, or 0, false at EOF.
func (p *refParser) peek() (byte, bool) {
	if !p.fill(1) {
		return 0, false
	}
	return p.buf[p.r], true
}

// peekAt returns the byte at offset i from the cursor.
func (p *refParser) peekAt(i int) (byte, bool) {
	if !p.fill(i + 1) {
		return 0, false
	}
	return p.buf[p.r+i], true
}

// next consumes and returns one byte, tracking line/column.
func (p *refParser) next() (byte, bool) {
	if !p.fill(1) {
		return 0, false
	}
	c := p.buf[p.r]
	p.r++
	if c == '\n' {
		p.line++
		p.col = 1
	} else if c&0xC0 != 0x80 { // don't count UTF-8 continuation bytes
		p.col++
	}
	return c, true
}

// skipSpace consumes XML whitespace.
func (p *refParser) skipSpace() {
	for {
		c, ok := p.peek()
		if !ok || !isSpace(c) {
			return
		}
		p.next()
	}
}

// expect consumes the literal s or returns an error.
func (p *refParser) expect(s string) error {
	for i := 0; i < len(s); i++ {
		c, ok := p.next()
		if !ok {
			return p.errf("unexpected end of input, expected %q", s)
		}
		if c != s[i] {
			return p.errf("expected %q", s)
		}
	}
	return nil
}

// hasPrefix reports whether the unread input starts with s.
func (p *refParser) hasPrefix(s string) bool {
	if !p.fill(len(s)) {
		return false
	}
	return string(p.buf[p.r:p.r+len(s)]) == s
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// isNameStart reports whether c may begin an XML name.  Multi-byte UTF-8
// lead bytes are accepted wholesale; full Unicode name classes are overkill
// for the target datasets.
func isNameStart(c byte) bool {
	return c == '_' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c == '-' || c == '.' || (c >= '0' && c <= '9')
}

// readName consumes an XML name.
func (p *refParser) readName() (string, error) {
	c, ok := p.peek()
	if !ok || !isNameStart(c) {
		return "", p.errf("expected a name")
	}
	var b strings.Builder
	for {
		c, ok := p.peek()
		if !ok || !isNameChar(c) {
			break
		}
		p.next()
		b.WriteByte(c)
	}
	return b.String(), nil
}

// readReference consumes an entity or character reference after the '&' has
// already been consumed and appends its expansion to b.
func (p *refParser) readReference(b *strings.Builder) error {
	var body strings.Builder
	for i := 0; ; i++ {
		c, ok := p.next()
		if !ok {
			return p.errf("unterminated entity reference")
		}
		if c == ';' {
			break
		}
		if i > 10 {
			return p.errf("entity reference too long")
		}
		body.WriteByte(c)
	}
	s := body.String()
	switch s {
	case "lt":
		b.WriteByte('<')
	case "gt":
		b.WriteByte('>')
	case "amp":
		b.WriteByte('&')
	case "apos":
		b.WriteByte('\'')
	case "quot":
		b.WriteByte('"')
	default:
		if len(s) > 1 && s[0] == '#' {
			r, ok := resolveCharRef(s[1:])
			if !ok {
				return p.errf("invalid character reference &%s;", s)
			}
			b.WriteRune(r)
			return nil
		}
		return p.errf("unknown entity &%s;", s)
	}
	return nil
}

// Next returns the next parse event, or io.EOF after the root element has
// been closed and only trailing misc content remains.  Any other error is a
// *SyntaxError.
func (p *refParser) Next() (Event, error) {
	for {
		ev, ok, err := p.step()
		if err != nil {
			return Event{}, err
		}
		if ok {
			return ev, nil
		}
	}
}

// step tries to produce one event; ok is false when the scanned construct is
// skipped (declaration, doctype, suppressed whitespace).
func (p *refParser) step() (Event, bool, error) {
	if !p.bomChecked {
		p.bomChecked = true
		// A UTF-8 byte order mark before the document is legal; skip it.
		if p.hasPrefix("\xEF\xBB\xBF") {
			p.next()
			p.next()
			p.next()
			p.col = 1
		}
	}
	if p.pending != nil {
		ev := *p.pending
		p.pending = nil
		if p.rootedAfterPending {
			p.rooted = true
			p.rootedAfterPending = false
		}
		return ev, true, nil
	}
	startLine, startCol := p.line, p.col
	c, ok := p.peek()
	if !ok {
		if len(p.stack) > 0 {
			return Event{}, false, p.errf("unexpected end of input: %d unclosed element(s), innermost <%s>", len(p.stack), p.stack[len(p.stack)-1])
		}
		if !p.rooted {
			return Event{}, false, p.errf("document has no root element")
		}
		return Event{}, false, io.EOF
	}

	if c != '<' {
		return p.scanText(startLine, startCol)
	}

	// Dispatch on what follows '<'.
	c1, _ := p.peekAt(1)
	switch {
	case c1 == '?':
		return p.scanProcInst(startLine, startCol)
	case c1 == '!':
		if p.hasPrefix("<!--") {
			return p.scanComment(startLine, startCol)
		}
		if p.hasPrefix("<![CDATA[") {
			return p.scanText(startLine, startCol)
		}
		if p.hasPrefix("<!DOCTYPE") {
			return Event{}, false, p.skipDoctype()
		}
		return Event{}, false, p.errf("unsupported markup declaration")
	case c1 == '/':
		return p.scanEndTag(startLine, startCol)
	default:
		return p.scanStartTag(startLine, startCol)
	}
}

func (p *refParser) scanText(line, col int) (Event, bool, error) {
	if len(p.stack) == 0 {
		// Character data outside the root: only whitespace is legal.  The
		// one change from the original: a CDATA section here used to be
		// skipped without being consumed, so Next looped forever.
		if p.hasPrefix("<![CDATA[") {
			return Event{}, false, p.errf("character data outside root element")
		}
		for {
			c, ok := p.peek()
			if !ok || c == '<' {
				return Event{}, false, nil
			}
			if !isSpace(c) {
				return Event{}, false, p.errf("character data outside root element")
			}
			p.next()
		}
	}
	p.text.Reset()
	allSpace := true
	for {
		c, ok := p.peek()
		if !ok {
			break
		}
		if c == '<' {
			if p.hasPrefix("<![CDATA[") {
				if err := p.scanCDATA(&allSpace); err != nil {
					return Event{}, false, err
				}
				continue
			}
			break
		}
		if c == ']' && p.hasPrefix("]]>") {
			// "]]>" must not appear bare in character data (XML 1.0 §2.4).
			return Event{}, false, p.errf(`"]]>" not allowed in character data`)
		}
		if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
			return Event{}, false, p.errf("control character 0x%02X not allowed in character data", c)
		}
		p.next()
		switch c {
		case '&':
			if err := p.readReference(&p.text); err != nil {
				return Event{}, false, err
			}
			allSpace = false
		default:
			if !isSpace(c) {
				allSpace = false
			}
			p.text.WriteByte(c)
		}
	}
	if allSpace && !p.KeepWhitespace {
		return Event{}, false, nil
	}
	return Event{Kind: Text, Value: p.text.String(), Line: line, Col: col}, true, nil
}

// scanCDATA consumes a <![CDATA[ ... ]]> section, appending its raw content
// to the current text buffer.
func (p *refParser) scanCDATA(allSpace *bool) error {
	if err := p.expect("<![CDATA["); err != nil {
		return err
	}
	for {
		if p.hasPrefix("]]>") {
			p.expect("]]>")
			return nil
		}
		c, ok := p.next()
		if !ok {
			return p.errf("unterminated CDATA section")
		}
		if !isSpace(c) {
			*allSpace = false
		}
		p.text.WriteByte(c)
	}
}

func (p *refParser) scanComment(line, col int) (Event, bool, error) {
	if err := p.expect("<!--"); err != nil {
		return Event{}, false, err
	}
	var b strings.Builder
	for {
		if p.hasPrefix("-->") {
			p.expect("-->")
			return Event{Kind: Comment, Value: b.String(), Line: line, Col: col}, true, nil
		}
		if p.hasPrefix("--") {
			return Event{}, false, p.errf("'--' not allowed inside comment")
		}
		c, ok := p.next()
		if !ok {
			return Event{}, false, p.errf("unterminated comment")
		}
		b.WriteByte(c)
	}
}

func (p *refParser) scanProcInst(line, col int) (Event, bool, error) {
	if err := p.expect("<?"); err != nil {
		return Event{}, false, err
	}
	name, err := p.readName()
	if err != nil {
		return Event{}, false, err
	}
	p.skipSpace()
	var b strings.Builder
	for {
		if p.hasPrefix("?>") {
			p.expect("?>")
			break
		}
		c, ok := p.next()
		if !ok {
			return Event{}, false, p.errf("unterminated processing instruction")
		}
		b.WriteByte(c)
	}
	if strings.EqualFold(name, "xml") {
		// The XML declaration is structural, not content; skip it.
		return Event{}, false, nil
	}
	return Event{Kind: ProcInst, Name: name, Value: b.String(), Line: line, Col: col}, true, nil
}

// skipDoctype consumes a DOCTYPE declaration including a bracketed internal
// subset, honouring nested brackets and quoted strings.
func (p *refParser) skipDoctype() error {
	if err := p.expect("<!DOCTYPE"); err != nil {
		return err
	}
	depth := 0
	for {
		c, ok := p.next()
		if !ok {
			return p.errf("unterminated DOCTYPE")
		}
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case '"', '\'':
			quote := c
			for {
				q, ok := p.next()
				if !ok {
					return p.errf("unterminated literal in DOCTYPE")
				}
				if q == quote {
					break
				}
			}
		case '>':
			if depth <= 0 {
				return nil
			}
		}
	}
}

func (p *refParser) scanStartTag(line, col int) (Event, bool, error) {
	if err := p.expect("<"); err != nil {
		return Event{}, false, err
	}
	name, err := p.readName()
	if err != nil {
		return Event{}, false, err
	}
	if p.rooted {
		return Event{}, false, p.errf("element <%s> after document root closed", name)
	}
	p.attrs = p.attrs[:0]
	selfClose := false
	for {
		p.skipSpace()
		c, ok := p.peek()
		if !ok {
			return Event{}, false, p.errf("unterminated start tag <%s>", name)
		}
		if c == '>' {
			p.next()
			break
		}
		if c == '/' {
			p.next()
			if err := p.expect(">"); err != nil {
				return Event{}, false, err
			}
			selfClose = true
			break
		}
		attr, err := p.scanAttr()
		if err != nil {
			return Event{}, false, err
		}
		for _, a := range p.attrs {
			if a.Name == attr.Name {
				return Event{}, false, p.errf("duplicate attribute %q on <%s>", attr.Name, name)
			}
		}
		p.attrs = append(p.attrs, attr)
	}
	p.started = true
	ev := Event{Kind: StartElement, Name: name, Attrs: p.attrs, Line: line, Col: col}
	if selfClose {
		// Queue the matching end event by pushing then immediately noting a
		// pending pop: we synthesize the end on the next step via a
		// one-element pending queue.
		p.pending = &Event{Kind: EndElement, Name: name, Line: p.line, Col: p.col}
		if len(p.stack) == 0 {
			p.rootedAfterPending = true
		}
	} else {
		p.stack = append(p.stack, name)
	}
	return ev, true, nil
}

func (p *refParser) scanAttr() (Attr, error) {
	name, err := p.readName()
	if err != nil {
		return Attr{}, err
	}
	p.skipSpace()
	if err := p.expect("="); err != nil {
		return Attr{}, p.errf("attribute %q missing '='", name)
	}
	p.skipSpace()
	q, ok := p.next()
	if !ok || (q != '"' && q != '\'') {
		return Attr{}, p.errf("attribute %q value must be quoted", name)
	}
	var b strings.Builder
	for {
		c, ok := p.next()
		if !ok {
			return Attr{}, p.errf("unterminated value for attribute %q", name)
		}
		if c == q {
			break
		}
		switch c {
		case '<':
			return Attr{}, p.errf("'<' not allowed in attribute value")
		case '&':
			if err := p.readReference(&b); err != nil {
				return Attr{}, err
			}
		case '\t', '\n', '\r':
			// Attribute-value normalization (XML 1.0 §3.3.3): literal
			// whitespace characters become spaces.
			b.WriteByte(' ')
		default:
			if c < 0x20 {
				return Attr{}, p.errf("control character 0x%02X not allowed in attribute value", c)
			}
			b.WriteByte(c)
		}
	}
	return Attr{Name: name, Value: b.String()}, nil
}

func (p *refParser) scanEndTag(line, col int) (Event, bool, error) {
	if err := p.expect("</"); err != nil {
		return Event{}, false, err
	}
	name, err := p.readName()
	if err != nil {
		return Event{}, false, err
	}
	p.skipSpace()
	if err := p.expect(">"); err != nil {
		return Event{}, false, err
	}
	if len(p.stack) == 0 {
		return Event{}, false, p.errf("closing tag </%s> with no open element", name)
	}
	open := p.stack[len(p.stack)-1]
	if open != name {
		return Event{}, false, p.errf("closing tag </%s> does not match open <%s>", name, open)
	}
	p.stack = p.stack[:len(p.stack)-1]
	if len(p.stack) == 0 {
		p.rooted = true
	}
	return Event{Kind: EndElement, Name: name, Line: line, Col: col}, true, nil
}
