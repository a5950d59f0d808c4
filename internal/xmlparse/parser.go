package xmlparse

import (
	"bytes"
	"io"
	"strings"
)

// Next returns the next parse event, or io.EOF after the root element has
// been closed and only trailing misc content remains.  Any other error is a
// *SyntaxError, or the source's read error wrapped.
func (p *Parser) Next() (Event, error) {
	t, err := p.NextToken()
	if err != nil {
		return Event{}, err
	}
	line, col := p.pos(p.tokStart)
	return Event{Kind: t.Kind, Name: t.Name, Value: string(t.Value), Attrs: t.Attrs, Line: line, Col: col}, nil
}

// NextToken returns the next event as a Token: what Next returns, without
// the position and without copying the value out of the parser's window.
func (p *Parser) NextToken() (Token, error) {
	if p.err != nil {
		return Token{}, p.err
	}
	for {
		ok, err := p.step()
		if err != nil {
			p.err = err
			return Token{}, err
		}
		if ok {
			return p.tok, nil
		}
	}
}

// step tries to produce one token into p.tok; ok is false when the scanned
// construct is skipped (declaration, doctype, suppressed whitespace).
func (p *Parser) step() (bool, error) {
	if !p.bomChecked {
		p.bomChecked = true
		// A UTF-8 byte order mark before the document is legal; skip it.
		// It takes no column.
		if p.hasAt(0, "\xEF\xBB\xBF") {
			p.r += 3
			p.mark += 3
		}
	}
	if p.pending {
		p.pending = false
		if p.rootedAfterPending {
			p.rooted = true
			p.rootedAfterPending = false
		}
		p.tokStart = p.pendingOff
		p.tok = Token{Kind: EndElement, Name: p.pendingName}
		return true, nil
	}
	p.tokStart = p.base + p.r
	c, ok := p.at(0)
	if !ok {
		if p.rerr != nil {
			return false, p.readError()
		}
		if len(p.stack) > 0 {
			return false, p.fail(0, "unexpected end of input: %d unclosed element(s), innermost <%s>", len(p.stack), p.stack[len(p.stack)-1])
		}
		if !p.rooted {
			return false, p.fail(0, "document has no root element")
		}
		return false, io.EOF
	}

	if c != '<' {
		return p.scanText()
	}

	// Dispatch on what follows '<'.
	c1, _ := p.at(1)
	switch {
	case c1 == '?':
		return p.scanProcInst()
	case c1 == '!':
		if p.hasAt(0, "<!--") {
			return p.scanComment()
		}
		if p.hasAt(0, cdataOpen) {
			return p.scanText()
		}
		if p.hasAt(0, "<!DOCTYPE") {
			return false, p.skipDoctype()
		}
		return false, p.fail(0, "unsupported markup declaration")
	case c1 == '/':
		return p.scanEndTag()
	default:
		return p.scanStartTag()
	}
}

const cdataOpen = "<![CDATA["

// scanText scans character data up to the next markup other than a CDATA
// section, which it takes in.  The value is a slice of the window unless a
// reference or a CDATA section made it need decoding into scratch.
func (p *Parser) scanText() (bool, error) {
	if len(p.stack) == 0 {
		return false, p.skipOutside()
	}
	p.scratch = p.scratch[:0]
	decoded, allSpace := false, true
	i := 0
	for {
		b := p.buf[p.r:p.w]
		j := i
		for j < len(b) && class[b[j]]&cTextStop == 0 {
			j++
		}
		if allSpace {
			for _, c := range b[i:j] {
				if class[c]&cSpace == 0 {
					allSpace = false
					break
				}
			}
		}
		if decoded {
			p.scratch = append(p.scratch, b[i:j]...)
		}
		i = j
		if i == len(b) {
			if p.more() {
				continue
			}
			break
		}
		c := b[i]
		if c == ']' {
			if p.hasAt(i, "]]>") {
				// "]]>" must not appear bare in character data (XML 1.0 §2.4).
				return false, p.fail(i, `"]]>" not allowed in character data`)
			}
			if decoded {
				p.scratch = append(p.scratch, c)
			}
			allSpace = false
			i++
			continue
		}
		if c != '<' && c != '&' {
			return false, p.fail(i, "control character 0x%02X not allowed in character data", c)
		}
		if c == '<' && !p.hasAt(i, cdataOpen) {
			break
		}
		if !decoded {
			p.scratch = append(p.scratch, p.buf[p.r:p.r+i]...)
			decoded = true
		}
		var err error
		if c == '&' {
			p.scratch, i, err = p.reference(i+1, p.scratch)
			allSpace = false
		} else {
			i, err = p.cdata(i+len(cdataOpen), &allSpace)
		}
		if err != nil {
			return false, err
		}
	}
	value := p.buf[p.r : p.r+i]
	if decoded {
		value = p.scratch
	}
	p.r += i
	if allSpace && !p.KeepWhitespace {
		return false, nil
	}
	p.tok = Token{Kind: Text, Value: value}
	return true, nil
}

// cdata appends the raw content of the CDATA section whose content starts
// at offset i to scratch and returns the offset just past its "]]>".
func (p *Parser) cdata(i int, allSpace *bool) (int, error) {
	from := i
	for {
		b := p.buf[p.r:p.w]
		if k := bytes.Index(b[from:], cdataClose); k >= 0 {
			content := b[i : from+k]
			if *allSpace {
				*allSpace = len(bytes.TrimLeft(content, " \t\r\n")) == 0
			}
			p.scratch = append(p.scratch, content...)
			return from + k + len(cdataClose), nil
		}
		from = max(i, len(b)-len(cdataClose)+1)
		if !p.more() {
			return 0, p.fail(p.end(), "unterminated CDATA section")
		}
	}
}

var cdataClose = []byte("]]>")

// skipOutside consumes the whitespace between top-level constructs; any
// other character data there — a CDATA section included — is an error.
func (p *Parser) skipOutside() error {
	i := 0
	for {
		for b := p.buf[p.r:p.w]; i < len(b); i++ {
			if b[i] == '<' && i > 0 {
				p.r += i
				return nil
			}
			if class[b[i]]&cSpace == 0 {
				return p.fail(i, "character data outside root element")
			}
		}
		if !p.more() {
			p.r += i
			return nil
		}
	}
}

// find returns the offset of the first sep at or after offset i, or -1 when
// the input ends first.
func (p *Parser) find(i int, sep string) int {
	from := i
	for {
		b := p.buf[p.r:p.w]
		if k := bytes.Index(b[from:], []byte(sep)); k >= 0 {
			return from + k
		}
		from = max(i, len(b)-len(sep)+1)
		if !p.more() {
			return -1
		}
	}
}

func (p *Parser) scanComment() (bool, error) {
	i := len("<!--")
	k := p.find(i, "--")
	if k < 0 {
		return false, p.fail(p.end(), "unterminated comment")
	}
	if c, _ := p.at(k + 2); c != '>' {
		return false, p.fail(k, "'--' not allowed inside comment")
	}
	value := p.buf[p.r+i : p.r+k]
	p.r += k + len("-->")
	p.tok = Token{Kind: Comment, Value: value}
	return true, nil
}

func (p *Parser) scanProcInst() (bool, error) {
	name, i, err := p.name(len("<?"))
	if err != nil {
		return false, err
	}
	i = p.skipSpace(i)
	k := p.find(i, "?>")
	if k < 0 {
		return false, p.fail(p.end(), "unterminated processing instruction")
	}
	value := p.buf[p.r+i : p.r+k]
	p.r += k + len("?>")
	if strings.EqualFold(name, "xml") {
		// The XML declaration is structural, not content; skip it.
		return false, nil
	}
	p.tok = Token{Kind: ProcInst, Name: name, Value: value}
	return true, nil
}

// skipDoctype consumes a DOCTYPE declaration including a bracketed internal
// subset, honouring nested brackets and quoted strings.
func (p *Parser) skipDoctype() error {
	depth := 0
	for i := len("<!DOCTYPE"); ; i++ {
		c, ok := p.at(i)
		if !ok {
			return p.fail(i, "unterminated DOCTYPE")
		}
		switch c {
		case '[':
			depth++
		case ']':
			depth--
		case '"', '\'':
			k := p.find(i+1, string(c))
			if k < 0 {
				return p.fail(p.end(), "unterminated literal in DOCTYPE")
			}
			i = k
		case '>':
			if depth <= 0 {
				p.r += i + 1
				return nil
			}
		}
	}
}

// manyAttrs is the attribute count past which the duplicate check moves
// from comparing with every earlier attribute to a set.
const manyAttrs = 8

func (p *Parser) scanStartTag() (bool, error) {
	name, i, err := p.name(len("<"))
	if err != nil {
		return false, err
	}
	if p.rooted {
		return false, p.fail(i, "element <%s> after document root closed", name)
	}
	p.attrs = p.attrs[:0]
	selfClose := false
	for {
		i = p.skipSpace(i)
		c, ok := p.at(i)
		if !ok {
			return false, p.fail(i, "unterminated start tag <%s>", name)
		}
		if c == '>' {
			i++
			break
		}
		if c == '/' {
			c, ok := p.at(i + 1)
			if !ok {
				return false, p.fail(i+1, `unexpected end of input, expected ">"`)
			}
			if c != '>' {
				return false, p.fail(i+2, `expected ">"`)
			}
			i += 2
			selfClose = true
			break
		}
		var attr Attr
		if attr, i, err = p.scanAttr(i); err != nil {
			return false, err
		}
		if p.duplicate(attr.Name) {
			return false, p.fail(i, "duplicate attribute %q on <%s>", attr.Name, name)
		}
		p.attrs = append(p.attrs, attr)
	}
	p.r += i
	if selfClose {
		// The matching end event comes from the next step.
		p.pending, p.pendingName, p.pendingOff = true, name, p.base+p.r
		p.rootedAfterPending = len(p.stack) == 0
	} else {
		p.stack = append(p.stack, name)
	}
	p.tok = Token{Kind: StartElement, Name: name, Attrs: p.attrs}
	return true, nil
}

// duplicate reports whether the tag being scanned already has an attribute
// called name.  Names are interned, so a few are compared directly; past
// manyAttrs they go into a set, which keeps a tag with a great many
// attributes linear.
func (p *Parser) duplicate(name string) bool {
	n := len(p.attrs)
	if n < manyAttrs {
		for _, a := range p.attrs {
			if a.Name == name {
				return true
			}
		}
		return false
	}
	if n == manyAttrs {
		if p.seen == nil {
			p.seen = make(map[string]bool)
		}
		clear(p.seen)
		for _, a := range p.attrs {
			p.seen[a.Name] = true
		}
	}
	if p.seen[name] {
		return true
	}
	p.seen[name] = true
	return false
}

// scanAttr scans the attribute at offset i and returns it with the offset
// just past its closing quote.
func (p *Parser) scanAttr(i int) (Attr, int, error) {
	name, i, err := p.name(i)
	if err != nil {
		return Attr{}, 0, err
	}
	i = p.skipSpace(i)
	if c, ok := p.at(i); !ok || c != '=' {
		return Attr{}, 0, p.fail(min(i+1, p.end()), "attribute %q missing '='", name)
	}
	i = p.skipSpace(i + 1)
	q, ok := p.at(i)
	if !ok || (q != '"' && q != '\'') {
		return Attr{}, 0, p.fail(min(i+1, p.end()), "attribute %q value must be quoted", name)
	}
	i++
	start := i
	p.scratch = p.scratch[:0]
	decoded := false
	for {
		b := p.buf[p.r:p.w]
		j := i
		for j < len(b) && class[b[j]]&cAttrStop == 0 {
			j++
		}
		if decoded {
			p.scratch = append(p.scratch, b[i:j]...)
		}
		i = j
		if i == len(b) {
			if !p.more() {
				return Attr{}, 0, p.fail(i, "unterminated value for attribute %q", name)
			}
			continue
		}
		c := b[i]
		if c == q {
			value := b[start:i]
			if decoded {
				value = p.scratch
			}
			return Attr{Name: name, Value: string(value)}, i + 1, nil
		}
		if !decoded {
			p.scratch = append(p.scratch, b[start:i]...)
			decoded = true
		}
		switch c {
		case '<':
			return Attr{}, 0, p.fail(i+1, "'<' not allowed in attribute value")
		case '&':
			if p.scratch, i, err = p.reference(i+1, p.scratch); err != nil {
				return Attr{}, 0, err
			}
		case '\t', '\n', '\r':
			// Attribute-value normalization (XML 1.0 §3.3.3): literal
			// whitespace characters become spaces.
			p.scratch = append(p.scratch, ' ')
			i++
		case '"', '\'': // the other quote
			p.scratch = append(p.scratch, c)
			i++
		default:
			return Attr{}, 0, p.fail(i+1, "control character 0x%02X not allowed in attribute value", c)
		}
	}
}

func (p *Parser) scanEndTag() (bool, error) {
	i, err := p.nameEnd(len("</"))
	if err != nil {
		return false, err
	}
	// A well-formed end tag names the innermost open element, whose name is
	// interned already: only a mismatch needs the lookup.
	var name string
	if b := p.buf[p.r+len("</") : p.r+i]; len(p.stack) > 0 && string(b) == p.stack[len(p.stack)-1] {
		name = p.stack[len(p.stack)-1]
	} else {
		name = p.intern(b)
	}
	i = p.skipSpace(i)
	c, ok := p.at(i)
	if !ok {
		return false, p.fail(i, `unexpected end of input, expected ">"`)
	}
	if c != '>' {
		return false, p.fail(i+1, `expected ">"`)
	}
	i++
	if len(p.stack) == 0 {
		return false, p.fail(i, "closing tag </%s> with no open element", name)
	}
	open := p.stack[len(p.stack)-1]
	if open != name {
		return false, p.fail(i, "closing tag </%s> does not match open <%s>", name, open)
	}
	p.stack = p.stack[:len(p.stack)-1]
	if len(p.stack) == 0 {
		p.rooted = true
	}
	p.r += i
	p.tok = Token{Kind: EndElement, Name: name}
	return true, nil
}
