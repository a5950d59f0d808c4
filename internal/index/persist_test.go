package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"slices"
	"strings"
	"testing"

	"lotusx/internal/doc"
)

func TestSaveFullLoadFullRoundTrip(t *testing.T) {
	ix := mustIndex(t, bibXML)
	var buf bytes.Buffer
	if err := ix.SaveFull(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := LoadFull(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Everything the index answers must be identical.
	if ix2.ValuedNodes() != ix.ValuedNodes() {
		t.Error("valued count differs")
	}
	d := ix2.Document()
	if d.Len() != ix.Document().Len() {
		t.Fatal("document differs")
	}
	tags := d.Tags()
	for _, name := range []string{"article", "author", "title", "@key"} {
		if ix2.TagCount(tags.ID(name)) != ix.TagCount(ix.Document().Tags().ID(name)) {
			t.Errorf("tag %q stream differs", name)
		}
	}
	for _, tok := range []string{"jiaheng", "lu", "xml", "holistic"} {
		if len(ix2.TokenPostings(tok)) != len(ix.TokenPostings(tok)) {
			t.Errorf("postings for %q differ", tok)
		}
	}
	if len(ix2.ExactMatches("jiaheng lu")) != 2 {
		t.Error("exact map not rebuilt")
	}
	if got := ix2.TagTrie().Complete("a", 5); len(got) == 0 {
		t.Error("tag trie not rebuilt")
	}
	vt := ix2.ValueTrie(tags.ID("author"))
	if vt == nil || len(vt.Complete("jiaheng", 3)) != 1 {
		t.Error("value tries not rebuilt")
	}
	if got := ix2.ContainsAll("twig holistic"); len(got) != 1 {
		t.Errorf("ContainsAll over reloaded postings = %v", got)
	}
}

func TestLoadFullDetectsCorruption(t *testing.T) {
	ix := mustIndex(t, bibXML)
	var buf bytes.Buffer
	if err := ix.SaveFull(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Flip one payload byte: checksum must catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-3] ^= 0xFF
	if _, err := LoadFull(bytes.NewReader(corrupt)); err == nil {
		t.Error("flipped byte not detected")
	} else if !strings.Contains(err.Error(), "checksum") {
		t.Errorf("unexpected error: %v", err)
	}

	// Truncation.
	if _, err := LoadFull(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncation not detected")
	}
	// Bad magic.
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := LoadFull(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic not detected")
	}
	// Bad version.
	badv := append([]byte(nil), data...)
	badv[4] = 99
	if _, err := LoadFull(bytes.NewReader(badv)); err == nil {
		t.Error("bad version not detected")
	}
	// Empty input.
	if _, err := LoadFull(bytes.NewReader(nil)); err == nil {
		t.Error("empty input not detected")
	}
}

func TestLoadFullTypedErrors(t *testing.T) {
	// Corruption and version skew must be distinguishable with errors.Is —
	// the corpus manifest loader drops corrupt shards but only re-saves
	// version-skewed ones.
	ix := mustIndex(t, bibXML)
	var buf bytes.Buffer
	if err := ix.SaveFull(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

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
			_, err := LoadFull(bytes.NewReader(tc.mangle(data)))
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

func TestSaveFullVsRebuildEquivalence(t *testing.T) {
	// LoadFull must agree with a from-scratch Build on every access path.
	ix := mustIndex(t, bibXML)
	var buf bytes.Buffer
	if err := ix.SaveFull(&buf); err != nil {
		t.Fatal(err)
	}
	full, err := LoadFull(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := Build(full.Document())
	for _, tok := range []string{"jiaheng", "lu", "2012", "databases"} {
		a := full.TokenPostings(tok)
		b := rebuilt.TokenPostings(tok)
		if len(a) != len(b) {
			t.Fatalf("postings(%q): %d vs %d", tok, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("postings(%q) differ at %d", tok, i)
			}
		}
	}
	if full.DF("jiaheng") != rebuilt.DF("jiaheng") {
		t.Error("DF differs")
	}
}

// v2CompressedFile assembles by hand the version-2 file earlier builds wrote
// for an index on the DAG-compressed substrate: the flags word with
// flagCompressed set, then the length-prefixed document and no postings.
func v2CompressedFile(tb testing.TB, d *doc.Document) []byte {
	tb.Helper()
	var docBuf bytes.Buffer
	if err := d.Save(&docBuf); err != nil {
		tb.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint32(nil, flagCompressed)
	payload = binary.LittleEndian.AppendUint64(payload, uint64(docBuf.Len()))
	payload = append(payload, docBuf.Bytes()...)
	file := []byte(fullMagic)
	file = binary.LittleEndian.AppendUint32(file, fullVersionFlags)
	file = binary.LittleEndian.AppendUint64(file, uint64(len(payload)))
	file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
	return append(file, payload...)
}

// TestLoadFullReadsVersion2Compressed: a version-2 file with flagCompressed
// loads as the index Build gives over its document.
func TestLoadFullReadsVersion2Compressed(t *testing.T) {
	want := mustIndex(t, bibXML)
	got, err := LoadFull(bytes.NewReader(v2CompressedFile(t, want.Document())))
	if err != nil {
		t.Fatal(err)
	}
	d := got.Document()
	if d.Len() != want.Document().Len() || d.Tags().Len() != want.Document().Tags().Len() {
		t.Fatalf("document: %d nodes / %d tags, want %d / %d",
			d.Len(), d.Tags().Len(), want.Document().Len(), want.Document().Tags().Len())
	}
	for tag := doc.TagID(0); int(tag) < d.Tags().Len(); tag++ {
		if got.TagCount(tag) != want.TagCount(tag) || !slices.Equal(got.Nodes(tag), want.Nodes(tag)) {
			t.Errorf("tag %q: %v, want %v", d.Tags().Name(tag), got.Nodes(tag), want.Nodes(tag))
		}
	}
	for _, tok := range []string{"jiaheng", "lu", "xml", "holistic", "2012", "absent"} {
		if !slices.Equal(got.TokenPostings(tok), want.TokenPostings(tok)) || got.DF(tok) != want.DF(tok) {
			t.Errorf("token %q: %v (df %d), want %v (df %d)",
				tok, got.TokenPostings(tok), got.DF(tok), want.TokenPostings(tok), want.DF(tok))
		}
	}
	for _, v := range []string{"Jiaheng Lu", "xml databases", "2005", "absent"} {
		if !slices.Equal(got.ExactMatches(v), want.ExactMatches(v)) {
			t.Errorf("exact %q: %v, want %v", v, got.ExactMatches(v), want.ExactMatches(v))
		}
	}
	if got.ValuedNodes() != want.ValuedNodes() {
		t.Errorf("ValuedNodes = %d, want %d", got.ValuedNodes(), want.ValuedNodes())
	}
}
