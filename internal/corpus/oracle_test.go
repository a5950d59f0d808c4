package corpus

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"lotusx/internal/dataset"
	"lotusx/internal/doc"
)

// The reference for split parts and compacted shards: print the records back
// to XML under a copy of the root and parse the result.  The builder must
// produce the very document this round trip does, byte for byte in
// doc.Save's format — labels, values and tag order included.

var refEscaper = strings.NewReplacer(
	"&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;", "'", "&apos;",
)

// refOpenTag renders n's start tag with its attribute children.
func refOpenTag(d *doc.Document, b *strings.Builder, n doc.NodeID) {
	b.WriteByte('<')
	b.WriteString(d.TagName(n))
	for c := d.FirstChild(n); c != doc.None; c = d.NextSibling(c) {
		if d.Kind(c) != doc.Attribute {
			continue
		}
		b.WriteByte(' ')
		b.WriteString(d.TagName(c)[1:]) // strip '@'
		b.WriteString(`="`)
		refEscaper.WriteString(b, d.Value(c))
		b.WriteByte('"')
	}
	b.WriteString(">\n")
}

// refPart renders part number part of p and re-parses it.
func refPart(p *splitPlan, part int) (*doc.Document, error) {
	d, records := p.d, p.groups[part]
	root := d.Root()
	var b strings.Builder
	refOpenTag(d, &b, root)
	if part == 0 && d.Value(root) != "" {
		refEscaper.WriteString(&b, d.Value(root))
		b.WriteByte('\n')
	}
	container := doc.None
	closeContainer := func() {
		if container != doc.None {
			b.WriteString("</" + d.TagName(container) + ">\n")
		}
	}
	for _, rec := range records {
		if rec.container != container {
			closeContainer()
			container = rec.container
			if container != doc.None {
				refOpenTag(d, &b, container)
				if rec.first && d.Value(container) != "" {
					refEscaper.WriteString(&b, d.Value(container))
					b.WriteByte('\n')
				}
			}
		}
		if err := d.WriteXML(&b, rec.node); err != nil {
			return nil, err
		}
	}
	closeContainer()
	b.WriteString("</" + d.TagName(root) + ">\n")
	return doc.FromString(fmt.Sprintf("%s#%d", d.Name(), part), b.String())
}

// refMerge renders the records of docs under the first one's root and
// re-parses the result.
func refMerge(name string, docs []*doc.Document) (*doc.Document, error) {
	var b strings.Builder
	first := docs[0]
	refOpenTag(first, &b, first.Root())
	for _, d := range docs {
		r := d.Root()
		if d.Value(r) != "" {
			refEscaper.WriteString(&b, d.Value(r))
			b.WriteByte('\n')
		}
		for c := d.FirstChild(r); c != doc.None; c = d.NextSibling(c) {
			if d.Kind(c) == doc.Element {
				if err := d.WriteXML(&b, c); err != nil {
					return nil, err
				}
			}
		}
	}
	b.WriteString("</" + first.TagName(first.Root()) + ">\n")
	return doc.FromString(name, b.String())
}

func saved(t *testing.T, d *doc.Document) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSplitMatchesReference checks every part of d split parts ways
// against the reference round trip.
func assertSplitMatchesReference(t *testing.T, d *doc.Document, parts int) {
	t.Helper()
	plan := planSplit(d, parts)
	if plan == nil {
		t.Fatalf("%s does not split %d ways", d.Name(), parts)
	}
	for i := range plan.groups {
		got, err := plan.part(i)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refPart(plan, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved(t, got), saved(t, want)) {
			t.Fatalf("%s: part %d/%d differs from the render + re-parse reference", d.Name(), i, parts)
		}
	}
}

func TestSplitMatchesReferenceOnDatasets(t *testing.T) {
	for _, k := range dataset.Kinds {
		d, err := dataset.Build(k, 2, 7)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{2, 3, 4, 7} {
			assertSplitMatchesReference(t, d, parts)
		}
	}
}

// TestSplitMatchesReferenceOnCraftedDocuments covers what the generators do
// not emit: root and container text, entities and tabs in attribute values,
// CDATA, text split around child elements, and non-ASCII text.
func TestSplitMatchesReferenceOnCraftedDocuments(t *testing.T) {
	docs := map[string]string{
		"root-text": `<lib note="a&amp;b&#9;c&#10;d">  lead text
  <book id="1"><title>T&lt;1&gt;</title>tail</book>
  middle
  <book id="2" tab="x&#9;y"><title><![CDATA[<raw> & ]]></title></book>
  <book id="3"><title>Grüße, 東京</title><p>one <b>two</b> three <i/> four</p></book>
  end
</lib>`,
		"containers": `<site v="&quot;q&apos;">
  site text
  <people kind="a&#13;b">people text<p>1</p>mid<p x="&lt;">2</p><p>3</p></people>
  <items><i>5</i><i>  six  <![CDATA[ cdata ]]>  </i><i>7&#9;tab</i><i/></items>
  <empty attr="only"/>
</site>`,
		"mixed": `<r>x<a>1<b>2</b>3<c/>4</a>y<a>  <d>&#233;</d>  </a>z<a>last</a></r>`,
	}
	for name, src := range docs {
		d := mustDoc(t, name, src)
		for parts := 2; parts <= 4; parts++ {
			assertSplitMatchesReference(t, d, parts)
		}
	}
}

func TestMergeDeltaDocsMatchesReference(t *testing.T) {
	var deltas []*doc.Document
	for i := 0; i < 5; i++ {
		src := fmt.Sprintf(`<dblp created="%d" tab="a&#9;b">root text %d
  <article key="a%d"><title>T&amp;%d</title><year>20%02d</year></article>
  after %d
  <book key="b%d" note="x&#10;y"><title><![CDATA[<b>%d</b>]]></title></book>
</dblp>`, i, i, i, i, i, i, i, i)
		deltas = append(deltas, mustDoc(t, fmt.Sprintf("delta-%d", i), src))
	}
	// Deltas holding root text and no record: their texts meet in one chunk.
	bare := []*doc.Document{
		mustDoc(t, "bare-1", `<dblp k="1">only text</dblp>`),
		mustDoc(t, "bare-2", `<dblp k="2">more &amp; text</dblp>`),
	}
	cases := [][]*doc.Document{
		deltas[:2], deltas[:3], deltas[:4], deltas,
		{bare[0], bare[1], deltas[0]},
		{deltas[1], bare[0], bare[1]},
	}
	for i, members := range cases {
		name := fmt.Sprintf("merged-%d", i)
		got, err := mergeDeltaDocs(name, members)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refMerge(name, members)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved(t, got), saved(t, want)) {
			t.Fatalf("case %d: merged document differs from the render + re-parse reference", i)
		}
	}
}
