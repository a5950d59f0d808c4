package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"lotusx/internal/doc"
)

// saved is d in the current index file format.
func saved(tb testing.TB, d *doc.Document) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := SaveDocument(&buf, d); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// docBytes is d in the bare document format, for comparing documents.
func docBytes(tb testing.TB, d *doc.Document) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestSaveFullLoadFullRoundTrip (named for the writer and reader that
// SaveDocument and LoadDocument replaced): a saved file is version 3 with
// the document as its whole payload, and it loads to the same document,
// whose rebuilt index answers as the original.
func TestSaveFullLoadFullRoundTrip(t *testing.T) {
	ix := mustIndex(t, bibXML)
	data := saved(t, ix.Document())
	if string(data[:4]) != fileMagic || binary.LittleEndian.Uint32(data[4:8]) != 3 {
		t.Fatalf("header %q version %d, want %q version 3", data[:4], binary.LittleEndian.Uint32(data[4:8]), fileMagic)
	}
	if !bytes.Equal(data[20:], docBytes(t, ix.Document())) {
		t.Fatal("payload is not the document")
	}
	d, err := LoadDocument(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(docBytes(t, d), docBytes(t, ix.Document())) {
		t.Fatal("loaded document differs from the saved one")
	}
	ix2 := Build(d)
	tags := d.Tags()
	for _, name := range []string{"article", "author", "title", "@key"} {
		if ix2.TagCount(tags.ID(name)) != ix.TagCount(ix.Document().Tags().ID(name)) {
			t.Errorf("tag %q stream differs", name)
		}
	}
	if len(ix2.ExactMatches("jiaheng lu")) != 2 {
		t.Error("exact map not rebuilt")
	}
	if got := ix2.ContainsAll("twig holistic"); len(got) != 1 {
		t.Errorf("ContainsAll over rebuilt postings = %v", got)
	}
}

// TestSaveDocumentIsDeterministic: one document saves to the same bytes
// every time, and so does the same XML parsed twice.
func TestSaveDocumentIsDeterministic(t *testing.T) {
	a, b := mustIndex(t, trickyXML).Document(), mustIndex(t, trickyXML).Document()
	first := saved(t, a)
	if !bytes.Equal(saved(t, a), first) || !bytes.Equal(saved(t, b), first) {
		t.Fatal("saving one document twice gave different files")
	}
}

// fixtureDoc loads testdata/name and returns its document beside the one
// parsed from trickyXML, from which both fixtures were written.
func fixtureDoc(t *testing.T, name string) (got, want *doc.Document) {
	t.Helper()
	data, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	got, err = LoadDocument(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err = doc.FromString("tricky", trickyXML)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(docBytes(t, got), docBytes(t, want)) {
		t.Fatalf("%s: loaded document differs from trickyXML", name)
	}
	return got, want
}

// TestSaveFullVsRebuildEquivalence: testdata/v1.ltx was written by the
// version-1 writer (SaveFull), postings included.  It loads to its document,
// and the index built over that matches the reference build entry for
// entry: the stored postings are ignored.
func TestSaveFullVsRebuildEquivalence(t *testing.T) {
	got, want := fixtureDoc(t, "v1.ltx")
	checkReference(t, "v1.ltx", Build(got), want)
}

// v2CompressedFile assembles by hand the version-2 file earlier builds wrote
// for an index on the DAG-compressed substrate: the flags word with its
// compressed bit set, then the length-prefixed document and no postings.
// testdata/v2.ltx is this file over trickyXML.
func v2CompressedFile(tb testing.TB, d *doc.Document) []byte {
	tb.Helper()
	docBuf := docBytes(tb, d)
	payload := binary.LittleEndian.AppendUint32(nil, 1) // the compressed flag
	payload = binary.LittleEndian.AppendUint64(payload, uint64(len(docBuf)))
	payload = append(payload, docBuf...)
	file := []byte(fileMagic)
	file = binary.LittleEndian.AppendUint32(file, versionFlags)
	file = binary.LittleEndian.AppendUint64(file, uint64(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
	return append(file, payload...)
}

// TestLoadFullReadsVersion2Compressed: a version-2 file loads to its
// document, whose index matches the reference build — the committed fixture
// and one assembled here.
func TestLoadFullReadsVersion2Compressed(t *testing.T) {
	got, want := fixtureDoc(t, "v2.ltx")
	checkReference(t, "v2.ltx", Build(got), want)
	data, err := os.ReadFile("testdata/v2.ltx")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2CompressedFile(t, want), data) {
		t.Error("v2CompressedFile no longer assembles testdata/v2.ltx")
	}
}

func TestLoadFullDetectsCorruption(t *testing.T) {
	data := saved(t, mustIndex(t, bibXML).Document())

	// Flip one payload byte: checksum must catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-3] ^= 0xFF
	if _, err := LoadDocument(bytes.NewReader(corrupt)); err == nil {
		t.Error("flipped byte not detected")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("unexpected error: %v", err)
	}

	// Truncation.
	if _, err := LoadDocument(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncation not detected")
	}
	// Bad magic.
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := LoadDocument(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic not detected")
	}
	// Bad version.
	badv := append([]byte(nil), data...)
	badv[4] = 99
	if _, err := LoadDocument(bytes.NewReader(badv)); err == nil {
		t.Error("bad version not detected")
	}
	// Empty input.
	if _, err := LoadDocument(bytes.NewReader(nil)); err == nil {
		t.Error("empty input not detected")
	}
}

func TestLoadFullTypedErrors(t *testing.T) {
	// Corruption and version skew must be distinguishable with errors.Is —
	// the corpus manifest loader quarantines both but names a different
	// cause.
	data := saved(t, mustIndex(t, bibXML).Document())

	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		want    error
		notWant error
	}{
		{"flipped payload byte", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-3] ^= 0xFF
			return c
		}, ErrCorrupt, ErrBadVersion},
		{"bad magic", func(b []byte) []byte {
			return append([]byte("XXXX"), b[4:]...)
		}, ErrCorrupt, ErrBadVersion},
		{"truncated", func(b []byte) []byte {
			return b[:len(b)/2]
		}, ErrCorrupt, ErrBadVersion},
		{"future version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 99
			return c
		}, ErrBadVersion, ErrCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadDocument(bytes.NewReader(tc.mangle(data)))
			if err == nil {
				t.Fatal("mangled file loaded without error")
			}
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want errors.Is(err, %v)", err, tc.want)
			}
			if errors.Is(err, tc.notWant) {
				t.Errorf("err = %v unexpectedly matches %v", err, tc.notWant)
			}
		})
	}
}
