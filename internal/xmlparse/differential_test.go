package xmlparse

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// run is one parse to its end: the events, then the error that ended it
// (nil for a clean io.EOF).
type run struct {
	events []Event
	err    error
}

func drain(next func() (Event, error)) run {
	var out run
	for {
		ev, err := next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			out.err = err
			return out
		}
		ev.Attrs = append([]Attr(nil), ev.Attrs...)
		out.events = append(out.events, ev)
	}
}

func referenceRun(src io.Reader, keepSpace bool) run {
	p := newRefParser(src)
	p.KeepWhitespace = keepSpace
	return drain(p.Next)
}

// scannerRuns parses src with the span scanner three ways: the default
// window over one read, and windows of a few bytes fed one byte or half a
// buffer per read, so every token also straddles refills, compactions and
// growths of the window.
func scannerRuns(src string, keepSpace bool) map[string]run {
	out := map[string]run{}
	for name, p := range map[string]*Parser{
		"default":        NewParserString(src),
		"window 1, 1B":   newParser(iotest.OneByteReader(strings.NewReader(src)), 1),
		"window 7, half": newParser(iotest.HalfReader(strings.NewReader(src)), 7),
	} {
		p.KeepWhitespace = keepSpace
		out[name] = drain(p.Next)
	}
	return out
}

// diff describes how got differs from the reference run want, or is "".
func diff(got, want run) string {
	n := min(len(got.events), len(want.events))
	for i := 0; i < n; i++ {
		if !reflect.DeepEqual(got.events[i], want.events[i]) {
			return fmt.Sprintf("event %d = %+v, reference %+v", i, got.events[i], want.events[i])
		}
	}
	if len(got.events) != len(want.events) {
		return fmt.Sprintf("%d events, reference %d", len(got.events), len(want.events))
	}
	var gs, ws *SyntaxError
	switch {
	case got.err == nil && want.err == nil:
		return ""
	case errors.As(got.err, &gs) && errors.As(want.err, &ws) && *gs == *ws:
		return ""
	}
	return fmt.Sprintf("error %v, reference %v", got.err, want.err)
}

// checkMatchesReference fails t unless every scanner run of src equals the
// reference's, with and without KeepWhitespace.
func checkMatchesReference(t *testing.T, src string) {
	t.Helper()
	for _, keep := range []bool{false, true} {
		want := referenceRun(strings.NewReader(src), keep)
		for name, got := range scannerRuns(src, keep) {
			if d := diff(got, want); d != "" {
				t.Errorf("%q (%s, KeepWhitespace %v): %s", src, name, keep, d)
			}
		}
	}
}

// craftedDocuments reach every construct and every error path of the
// parser, with positions after multi-byte text and across lines.
var craftedDocuments = []string{
	// well-formed
	`<a><b x="1" y='two'>hi</b><c/></a>`,
	"<?xml version=\"1.0\"?>\n<!DOCTYPE d SYSTEM \"d.dtd\" [ <!ENTITY x \"y]>\"> ]>\n<d>\n  <e>t</e>\n</d>\n",
	"<a>&lt;&gt;&amp;&apos;&quot; &#65;&#x42;&#x1F600;&#9;</a>",
	`<a t="Tom &amp; Jerry&#33; &#x9;" u="a&quot;b" v='"' w="'"/>`,
	"<a>pre<![CDATA[<raw> & ]] stuff]]>post<![CDATA[]]><![CDATA[  ]]></a>",
	"<a><![CDATA[  ]]> <![CDATA[\n]]></a>",
	"<a><!-- a - comment --><?target data here?><?t?><?xml-ish x?></a>",
	"<a>\n  <b>x</b>\n</a>",
	"<a>\r\n\t<b/>\r\n</a>",
	"\xEF\xBB\xBF<a>x</a>",
	"<a>日本語 テキスト<b>ü</b>é\n\tü<c/></a>",
	"<日本 属性=\"値\"><語>x</語></日本>",
	"<a k=\"one\ttwo\nthree\rfour\"/>",
	"<a>ok\tline\nend\r ]] ] x]</a>",
	"<a>\x7f\xff\xfe\x80</a>",
	"<a:b c.d-e='1' _f=\"2\"></a:b>",
	"<a/>\n<!-- trailing -->\n<?pi after?>\n",
	"  \n<a></a>  ",
	"<a></a >",
	"<a x = '1' y\n=\n\"2\"/>",
	"<a x='1'y='2'/>",
	"<a>&#x10FFFF;&#1114111;&#xD7FF;&#xE000;&#xFFFD;</a>",
	"<a><!DOCTYPE x></a>",
	"<a><?XML v?></a>",
	"<a>" + strings.Repeat("x", 300) + "&amp;" + strings.Repeat("y", 300) + "</a>",
	"<a>" + strings.Repeat("<b>t</b>\n", 200) + "</a>",
	// errors
	"",
	"   ",
	"<!-- only a comment -->",
	"<a><b>x",
	"<a><!FOO></a>",
	"<!",
	"x<a/>",
	"<a/>x",
	"<![CDATA[x]]><a/>",
	"<a/><![CDATA[x]]>",
	"<a>x]]>y</a>",
	"<a>x]]",
	"<a>bad\x01char</a>",
	"<a>\x00</a>",
	"<a>&amp",
	"<a>&",
	"<a>&abcdefghijklmnop;</a>",
	"<a>&abcdefghijk;</a>",
	"<a>&abcdefghij;</a>",
	"<a>&#xZZ;</a>",
	"<a>&#0;</a>",
	"<a>&#x110000;</a>",
	"<a>&#;</a>",
	"<a>&#x;</a>",
	"<a>&#xFFFE;</a>",
	"<a>&#99999999999;</a>",
	"<a>&nope;</a>",
	"<a>&;</a>",
	"<a t='&nope;'/>",
	"<a t='&amp'/>",
	"<a><![CDATA[x",
	"<a><![CDATA[x]",
	"<a><![CDATA[x]]",
	"<a><!-- -- --></a>",
	"<a><!-- x --",
	"<a><!-- x -",
	"<a><!-- x",
	"<a><!--->x--></a>",
	"<a><!---->x</a>",
	"<a><!-- x --->",
	"<a><?",
	"<a><? x?></a>",
	"<a><?pi x",
	"<a><?pi x?",
	"< a/>",
	"<a></ a>",
	"<a 1='x'/>",
	"<1/>",
	"<",
	"<!DOCTYPE x [",
	"<!DOCTYPE x \"abc",
	"<!DOCTYPE x 'a>b' [ ] ] >",
	"<a/><b/>",
	"<a/>\n\n  <b/>",
	"<a",
	"<a ",
	"<a x='1'",
	"<a/ >",
	"<a/",
	`<a x="1" x="2"/>`,
	`<a x="1" y="1" x="2"/>`,
	"<a x/>",
	"<a x",
	"<a x ",
	"<a x=1/>",
	"<a x=",
	"<a x= ",
	"<a x='abc",
	"<a x=\"abc'/>",
	`<a x="<"/>`,
	"<a x=\"\x02\"/>",
	"<a x=\"\x00\"/>",
	"</a",
	"<a></a",
	"<a></a x>",
	"<a></a x",
	"</a>",
	"<a/></a>",
	"<a></b>",
	"<a>\n  日本<b></c>\n</a>",
	"<a>é\n\tü</c>",
	"\xEF\xBB\xBF<a>é</b>",
	"\xEF\xBB",
	"<a>\x80\x80<b></c>",
	"<a>" + strings.Repeat("é", 50) + "\x01</a>",
}

func TestParserMatchesReferenceOnCraftedDocuments(t *testing.T) {
	for _, src := range craftedDocuments {
		checkMatchesReference(t, src)
	}
	for _, src := range fuzzSeeds {
		checkMatchesReference(t, src)
	}
}

// FuzzParserMatchesReference: the span scanner and the byte-at-a-time
// reference give the same event stream — kind, name, value, attributes,
// line and column — or the same SyntaxError line, column and message, at
// every window size and read pattern.
func FuzzParserMatchesReference(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	for _, s := range craftedDocuments {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkMatchesReference(t, src)
	})
}

// manyAttributes is a one-line start tag with n distinct attributes, and a
// repeat of the first one at its end when dup is set.
func manyAttributes(n int, dup bool) string {
	var b strings.Builder
	b.WriteString("<r")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, " a%d='%d'", i, i)
	}
	if dup {
		b.WriteString(" a0='again'")
	}
	b.WriteString("/>")
	return b.String()
}

// TestManyAttributesLinear: the duplicate-attribute check no longer compares
// each attribute with every earlier one.  The reference takes minutes on
// 200 000 attributes, so it checks the error on a smaller tag and the big
// one is held to the same message and position by construction.
func TestManyAttributesLinear(t *testing.T) {
	const n = 200_000
	start := time.Now()
	got := drain(NewParserString(manyAttributes(n, false)).Next)
	if got.err != nil || len(got.events) != 2 || len(got.events[0].Attrs) != n {
		t.Fatalf("%d events, err %v", len(got.events), got.err)
	}
	src := manyAttributes(n, true)
	got = drain(NewParserString(src).Next)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("two %d-attribute tags took %v", n, elapsed)
	}
	want := &SyntaxError{Line: 1, Col: len(src) - len("/>") + 1, Msg: `duplicate attribute "a0" on <r>`}
	var se *SyntaxError
	if !errors.As(got.err, &se) || *se != *want {
		t.Errorf("err = %v, want %v", got.err, want)
	}

	small := manyAttributes(2000, true)
	checkMatchesReference(t, small)
	ref := referenceRun(strings.NewReader(small), false)
	if !errors.As(ref.err, &se) || se.Msg != want.Msg || se.Col != len(small)-len("/>")+1 {
		t.Errorf("reference err = %v, want %q at the closing quote", ref.err, want.Msg)
	}
}

// TestReadErrorReturned: a source that fails is reported as that failure,
// wrapped, not as XML truncated where the failure cut it.
func TestReadErrorReturned(t *testing.T) {
	boom := errors.New("disk on fire")
	for _, head := range []string{"", "<a><b>x</b>", "<a/>", "<a x='1", "<a><!-- c"} {
		p := NewParser(io.MultiReader(strings.NewReader(head), iotest.ErrReader(boom)))
		got := drain(p.Next)
		if !errors.Is(got.err, boom) {
			t.Errorf("%q: err = %v, want the read error", head, got.err)
		}
		if _, err := p.Next(); !errors.Is(err, boom) {
			t.Errorf("%q: the next call returned %v, want the same error", head, err)
		}
	}
	// A reader that never makes progress is an error too, not a hang.
	if got := drain(NewParser(stuckReader{}).Next); !errors.Is(got.err, io.ErrNoProgress) {
		t.Errorf("stuck reader: err = %v, want io.ErrNoProgress", got.err)
	}
}

// stuckReader returns no bytes and no error, forever.
type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }
