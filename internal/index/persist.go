package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"lotusx/internal/doc"
)

// Typed load failures.  Callers (the corpus manifest loader, the server's
// index opener) branch on these with errors.Is: a corrupt file is dropped or
// rebuilt from source, while a version-skewed file is structurally sound and
// only needs re-saving with the current writer.
var (
	// ErrCorrupt marks a file SaveFull never wrote: bad magic, truncation,
	// checksum mismatch, or an internally inconsistent payload.
	ErrCorrupt = errors.New("index: corrupt full-index file")
	// ErrBadVersion marks a well-formed file written by an incompatible
	// SaveFull version.
	ErrBadVersion = errors.New("index: unsupported full-index version")
)

// Full index persistence.  Save/Load (index.go) store only the document and
// rebuild everything on open; SaveFull/LoadFull additionally persist the
// token postings — the one derived structure whose reconstruction
// (tokenizing every value) dominates rebuild time — and protect the whole
// payload with a CRC32 so a truncated or corrupted file is rejected rather
// than silently misread.
//
// Layout: magic "LTXI" | version u32 | payload len u64 | crc32 u32 | payload
// where payload = document | valued u32 | postings section.
//
// Version 2 prefixes the payload with a flags word.  A compressed index
// (flagCompressed) persists only its document — the DAG substrate dedups
// the very repetition that makes postings expensive to rebuild, so
// re-deriving it on load is cheap and the file stays small.  Version-1
// files still load unchanged.
const (
	fullMagic        = "LTXI"
	fullVersion      = 1
	fullVersionFlags = 2

	// flagCompressed marks a version-2 payload whose index was built on
	// the DAG-compressed substrate; the load rebuilds it in that mode.
	flagCompressed = 1 << 0
)

// SaveFull writes the index with its postings, checksummed.  A compressed
// index writes the version-2 document-only layout instead.
func (ix *Index) SaveFull(w io.Writer) error {
	if ix.comp != nil {
		return ix.saveFullCompressed(w)
	}
	// The document section is length-prefixed because doc.Load buffers its
	// reader and would otherwise consume bytes of the following sections.
	var docBuf bytes.Buffer
	if err := ix.document.Save(&docBuf); err != nil {
		return err
	}
	var payload bytes.Buffer
	var lenHdr [8]byte
	binary.LittleEndian.PutUint64(lenHdr[:], uint64(docBuf.Len()))
	payload.Write(lenHdr[:])
	payload.Write(docBuf.Bytes())

	pw := bufio.NewWriter(&payload)
	var scratch [4]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:], v)
		pw.Write(scratch[:])
	}
	str := func(s string) {
		u32(uint32(len(s)))
		pw.WriteString(s)
	}

	u32(uint32(ix.valued))
	u32(uint32(len(ix.postings)))
	// Deterministic section order is not required for correctness but makes
	// byte-identical saves reproducible; map order suffices functionally,
	// so iterate sorted only for small maps? Sorting large token maps costs
	// more than it gives — determinism comes from the CRC covering content,
	// and tests compare semantics, not bytes.
	for tok, nodes := range ix.postings {
		str(tok)
		u32(uint32(len(nodes)))
		for _, n := range nodes {
			u32(uint32(n))
		}
	}
	if err := pw.Flush(); err != nil {
		return err
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fullMagic); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], fullVersion)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(payload.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

// saveFullCompressed writes the version-2 layout: flags word plus the
// length-prefixed document, checksummed like version 1.
func (ix *Index) saveFullCompressed(w io.Writer) error {
	var docBuf bytes.Buffer
	if err := ix.document.Save(&docBuf); err != nil {
		return err
	}
	var payload bytes.Buffer
	var hdr12 [12]byte
	binary.LittleEndian.PutUint32(hdr12[0:4], flagCompressed)
	binary.LittleEndian.PutUint64(hdr12[4:12], uint64(docBuf.Len()))
	payload.Write(hdr12[:])
	payload.Write(docBuf.Bytes())

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fullMagic); err != nil {
		return err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], fullVersionFlags)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.Write(payload.Bytes()); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadFull reads an index written by SaveFull, verifying the checksum.
func LoadFull(r io.Reader) (*Index, error) {
	d, flags, rest, err := readFull(r)
	if err != nil {
		return nil, err
	}
	if flags&flagCompressed != 0 {
		// The substrate is derived, not stored: rebuild it in compressed
		// mode.  ForceCompress keeps the on-disk flag and the manifest's
		// view of the shard in agreement even for borderline documents.
		return BuildWith(d, BuildOptions{ForceCompress: true}), nil
	}
	return loadPostings(d, rest)
}

// LoadFullDocument reads only the document of a file written by SaveFull,
// verifying the checksum — for callers that will index it differently (as
// shards, or on another substrate) and so have no use for the stored one.
func LoadFullDocument(r io.Reader) (*doc.Document, error) {
	d, _, _, err := readFull(r)
	return d, err
}

// readFull verifies a SaveFull file and decodes its document, returning the
// payload flags and the postings section that follows the document.
func readFull(r io.Reader) (d *doc.Document, flags uint32, rest []byte, err error) {
	magic := make([]byte, len(fullMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, 0, nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if string(magic) != fullMagic {
		return nil, 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, magic)
	}
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, nil, fmt.Errorf("%w: reading header: %v", ErrCorrupt, err)
	}
	version := binary.LittleEndian.Uint32(hdr[0:4])
	if version != fullVersion && version != fullVersionFlags {
		return nil, 0, nil, fmt.Errorf("%w: got %d, want %d or %d", ErrBadVersion, version, fullVersion, fullVersionFlags)
	}
	plen := binary.LittleEndian.Uint64(hdr[4:12])
	if plen > 1<<34 {
		return nil, 0, nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(hdr[12:16]); got != want {
		return nil, 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}

	if version == fullVersionFlags {
		if len(payload) < 4 {
			return nil, 0, nil, fmt.Errorf("%w: payload too short", ErrCorrupt)
		}
		flags = binary.LittleEndian.Uint32(payload[:4])
		payload = payload[4:]
	}
	if len(payload) < 8 {
		return nil, 0, nil, fmt.Errorf("%w: payload too short", ErrCorrupt)
	}
	docLen := binary.LittleEndian.Uint64(payload[:8])
	if docLen > uint64(len(payload)-8) {
		return nil, 0, nil, fmt.Errorf("%w: document length %d", ErrCorrupt, docLen)
	}
	d, err = doc.Load(bytes.NewReader(payload[8 : 8+docLen]))
	if err != nil {
		return nil, 0, nil, err
	}
	return d, flags, payload[8+docLen:], nil
}

// loadPostings decodes the postings section of a raw SaveFull payload and
// assembles the index around it.
func loadPostings(d *doc.Document, section []byte) (*Index, error) {
	br := bytes.NewReader(section)
	var scratch [4]byte
	u32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:]), nil
	}
	str := func() (string, error) {
		n, err := u32()
		if err != nil {
			return "", err
		}
		if int(n) > br.Len() {
			return "", fmt.Errorf("%w: string length %d", ErrCorrupt, n)
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			return "", err
		}
		return string(b), nil
	}

	valued, err := u32()
	if err != nil {
		return nil, fmt.Errorf("%w: reading valued count: %v", ErrCorrupt, err)
	}
	ntoks, err := u32()
	if err != nil {
		return nil, fmt.Errorf("%w: reading postings count: %v", ErrCorrupt, err)
	}
	postings := make(map[string][]doc.NodeID, ntoks)
	for i := uint32(0); i < ntoks; i++ {
		tok, err := str()
		if err != nil {
			return nil, fmt.Errorf("%w: reading token: %v", ErrCorrupt, err)
		}
		cnt, err := u32()
		if err != nil {
			return nil, err
		}
		if int(cnt) > d.Len() {
			return nil, fmt.Errorf("%w: posting list longer than document", ErrCorrupt)
		}
		nodes := make([]doc.NodeID, cnt)
		for j := range nodes {
			v, err := u32()
			if err != nil {
				return nil, err
			}
			if int(v) >= d.Len() {
				return nil, fmt.Errorf("%w: posting references node %d of %d", ErrCorrupt, v, d.Len())
			}
			nodes[j] = doc.NodeID(v)
		}
		postings[tok] = nodes
	}

	return rebuildFromParts(d, postings, int(valued)), nil
}

// rebuildFromParts reconstructs the cheap derived structures (streams, the
// exact map, tries) from the document, reusing the persisted postings so no
// value is re-tokenized.
func rebuildFromParts(d *doc.Document, postings map[string][]doc.NodeID, valued int) *Index {
	ix := newRaw(d)
	ix.postings = postings
	ix.valued = valued
	ix.scanValues(func(doc.NodeID, string) {})
	return ix
}
