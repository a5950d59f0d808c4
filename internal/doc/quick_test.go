package doc

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// xmlTree is a quick-generatable random document.
type xmlTree struct {
	src string
}

// Generate implements quick.Generator: a random well-formed document with
// attributes, values and nesting.
func (xmlTree) Generate(rng *rand.Rand, size int) reflect.Value {
	tags := []string{"a", "b", "c", "item", "name"}
	vals := []string{"", "x", "hello world", "5 < 6 & 7", `quo"te`}
	var b strings.Builder
	var emit func(depth, budget int) int
	emit = func(depth, budget int) int {
		tag := tags[rng.Intn(len(tags))]
		b.WriteString("<" + tag)
		if rng.Intn(3) == 0 {
			b.WriteString(` k="` + escapeAttr(vals[rng.Intn(len(vals))]) + `"`)
		}
		b.WriteString(">")
		used := 1
		if v := vals[rng.Intn(len(vals))]; v != "" && rng.Intn(2) == 0 {
			b.WriteString(escapeText(v))
		}
		for used < budget && depth < 6 && rng.Intn(2) == 0 {
			used += emit(depth+1, budget-used)
		}
		b.WriteString("</" + tag + ">")
		return used
	}
	b.WriteString("<root>")
	budget := 1 + rng.Intn(size+1)
	for budget > 0 {
		budget -= emit(1, budget)
	}
	b.WriteString("</root>")
	return reflect.ValueOf(xmlTree{src: b.String()})
}

func escapeText(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;").Replace(s)
}

func escapeAttr(s string) string {
	return strings.NewReplacer("&", "&amp;", "<", "&lt;", `"`, "&quot;").Replace(s)
}

// equalDocs compares the query-relevant content of two documents.
func equalDocs(a, b *Document) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		n := NodeID(i)
		if a.TagName(n) != b.TagName(n) || a.Value(n) != b.Value(n) ||
			a.Kind(n) != b.Kind(n) || a.Parent(n) != b.Parent(n) {
			return false
		}
	}
	return true
}

// TestQuickRenderReparse: rendering a parsed document and re-parsing it is
// the identity on the query-relevant content.
func TestQuickRenderReparse(t *testing.T) {
	f := func(tr xmlTree) bool {
		d, err := FromString("gen", tr.src)
		if err != nil {
			t.Logf("generator produced invalid XML: %v\n%s", err, tr.src)
			return false
		}
		d2, err := FromString("re", d.XMLString(d.Root()))
		if err != nil {
			t.Logf("re-parse failed: %v", err)
			return false
		}
		return equalDocs(d, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCopyEqualsReparse: replaying a document through Builder.Copy
// builds exactly what parsing its rendering does, labels and tag order
// included.
func TestQuickCopyEqualsReparse(t *testing.T) {
	saved := func(d *Document) []byte {
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f := func(tr xmlTree) bool {
		d, err := FromString("gen", tr.src)
		if err != nil {
			return false
		}
		b := NewBuilder("copy", d.Len())
		b.Copy(d, d.Root())
		copied, err := b.Done()
		if err != nil {
			return false
		}
		reparsed, err := FromString("copy", d.XMLString(d.Root()))
		if err != nil {
			return false
		}
		return bytes.Equal(saved(copied), saved(reparsed))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSaveLoadIdentity: the binary format round-trips every generated
// document exactly (labels included).
func TestQuickSaveLoadIdentity(t *testing.T) {
	f := func(tr xmlTree) bool {
		d, err := FromString("gen", tr.src)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			return false
		}
		d2, err := Load(&buf)
		if err != nil {
			return false
		}
		if !equalDocs(d, d2) {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			n := NodeID(i)
			if d.Region(n) != d2.Region(n) || d.Dewey(n).Compare(d2.Dewey(n)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickStructuralInvariants: every generated document satisfies the
// labeling invariants the join algorithms rely on.
func TestQuickStructuralInvariants(t *testing.T) {
	f := func(tr xmlTree) bool {
		d, err := FromString("gen", tr.src)
		if err != nil {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			n := NodeID(i)
			r := d.Region(n)
			if r.End <= r.Start {
				return false
			}
			// Node IDs are preorder: regions open in Start order.
			if i > 0 && !d.Region(NodeID(i-1)).Precedes(r) {
				return false
			}
			if p := d.Parent(n); p != None {
				if !d.Region(p).IsParent(r) {
					return false
				}
				if !d.Dewey(p).IsAncestor(d.Dewey(n)) {
					return false
				}
			}
			// Children linked list agrees with parent pointers.
			for c := d.FirstChild(n); c != None; c = d.NextSibling(c) {
				if d.Parent(c) != n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
