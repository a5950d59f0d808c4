package doc

import (
	"bytes"
	"testing"
)

// FuzzLoad checks that Load answers arbitrary bytes with an error or with a
// document every accessor can walk — never a panic, a loop or an allocation
// the input does not pay for.  The seeds are Save output; `go test
// -fuzz=FuzzLoad` mutates them.
func FuzzLoad(f *testing.F) {
	for _, src := range []string{
		"<a/>",
		`<r k="v">text<a x="1" y="&#9;">x</a><b><c/>tail</b></r>`,
		bibXML,
	} {
		d, err := FromString("seed", src)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("LTXD\x01\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < d.Len(); i++ {
			n := NodeID(i)
			_ = d.Path(n) + d.Value(n)
			_ = d.Children(n, nil)
			_ = d.Dewey(n)
			_ = d.SubtreeSize(n)
		}
		_ = d.XMLString(d.Root())
	})
}
