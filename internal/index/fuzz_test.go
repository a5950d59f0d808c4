package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"runtime"
	"testing"

	"lotusx/internal/doc"
)

// FuzzLoadFull (named, like the TestLoadFull tests, for the reader
// LoadDocument replaced) checks that LoadDocument answers arbitrary bytes
// with a document Build can index or with a typed error (ErrCorrupt,
// ErrBadVersion) — never a panic or an allocation the input does not pay
// for.  Each input is also loaded with its header's length and checksum
// recomputed, so mutated payloads reach the version-specific framing and
// the document decoder instead of stopping at the checksum.  The seeds are
// one file of each version (the two committed fixtures and SaveDocument
// output) and a bare document, which the reader refuses by its magic.
func FuzzLoadFull(f *testing.F) {
	d, err := doc.FromString("seed", bibXML)
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"v1.ltx", "v2.ltx"} {
		data, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add(saved(f, d))
	f.Add(docBytes(f, d))
	load := func(t *testing.T, data []byte) {
		d, err := LoadDocument(bytes.NewReader(data))
		if err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBadVersion) {
			t.Fatalf("untyped error: %v", err)
		}
		if err == nil {
			Build(d)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		load(t, data)
		if len(data) >= 20 {
			sealed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint64(sealed[8:16], uint64(len(sealed)-20))
			binary.LittleEndian.PutUint32(sealed[16:20], crc32.ChecksumIEEE(sealed[20:]))
			load(t, sealed)
		}
	})
}

// TestLoadFullHugeClaimedPayload: a bare 20-byte header claiming a 16 GiB
// payload is corrupt, and finding out costs next to no memory.
func TestLoadFullHugeClaimedPayload(t *testing.T) {
	hdr := make([]byte, 20)
	copy(hdr, fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], fileVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], 1<<34)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadDocument(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting the header allocated %d bytes", grew)
	}
}
