package doc_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"

	"lotusx/internal/dataset"
	"lotusx/internal/doc"
)

// TestFromReaderReturnsReadError: a source that fails mid-document is
// reported as that failure, not as truncated XML.
func TestFromReaderReturnsReadError(t *testing.T) {
	boom := errors.New("connection reset")
	src := io.MultiReader(strings.NewReader("<a><b>x</b>"), iotest.ErrReader(boom))
	d, err := doc.FromReader("cut", src)
	if !errors.Is(err, boom) || d != nil {
		t.Fatalf("FromReader = %v, %v; want the read error", d, err)
	}
	if strings.Contains(err.Error(), "unclosed") {
		t.Errorf("error %q still reads as truncated XML", err)
	}
}

// TestFromReaderSizingKeepsTheDocument: sizing the node arrays from a
// sample of a source that knows its length — in memory, or a file — changes
// nothing but capacity: the same datasets read through a source of unknown
// length save to the same bytes.
func TestFromReaderSizingKeepsTheDocument(t *testing.T) {
	for _, k := range dataset.Kinds {
		var src bytes.Buffer
		if err := dataset.Generate(k, 2, 7, &src); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "src.xml")
		if err := os.WriteFile(path, src.Bytes(), 0o600); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		saved := map[string][]byte{}
		for name, r := range map[string]io.Reader{
			"unsized": struct{ io.Reader }{bytes.NewReader(src.Bytes())},
			"memory":  bytes.NewReader(src.Bytes()),
			"file":    f,
		} {
			d, err := doc.FromReader("d", r)
			if err != nil {
				t.Fatal(err)
			}
			var b bytes.Buffer
			if err := d.Save(&b); err != nil {
				t.Fatal(err)
			}
			saved[name] = b.Bytes()
		}
		for _, name := range []string{"memory", "file"} {
			if !bytes.Equal(saved[name], saved["unsized"]) {
				t.Errorf("%s: the %s source's sized parse saves differently", k, name)
			}
		}
	}
}
