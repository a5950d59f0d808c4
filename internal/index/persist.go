package index

import (
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
// Version 2 prefixes the payload with a flags word.  Earlier builds wrote it
// for an index on the DAG-compressed substrate (flagCompressed), with the
// document alone after the flags; that substrate is gone, so LoadFull
// rebuilds such a file as a plain index.  SaveFull writes only version 1.
const (
	fullMagic        = "LTXI"
	fullVersion      = 1
	fullVersionFlags = 2

	// flagCompressed marks a version-2 payload that stores no postings.
	flagCompressed = 1 << 0
)

// SaveFull writes the index with its postings, checksummed.
func (ix *Index) SaveFull(w io.Writer) error {
	var payload bytes.Buffer
	var scratch [8]byte
	u32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		payload.Write(scratch[:4])
	}
	// The document section is length-prefixed because doc.Load buffers its
	// reader and would otherwise consume bytes of the following sections.
	var docBuf bytes.Buffer
	if err := ix.document.Save(&docBuf); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(scratch[:], uint64(docBuf.Len()))
	payload.Write(scratch[:])
	payload.Write(docBuf.Bytes())

	u32(uint32(ix.valued))
	u32(uint32(len(ix.postings)))
	// Map order makes saves of one index differ byte for byte; the CRC
	// covers content and tests compare semantics, so sorting large token
	// maps would cost more than it gives.
	for tok, nodes := range ix.postings {
		u32(uint32(len(tok)))
		payload.WriteString(tok)
		u32(uint32(len(nodes)))
		for _, n := range nodes {
			u32(uint32(n))
		}
	}

	var hdr [20]byte
	copy(hdr[:], fullMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], fullVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// LoadFull reads an index written by SaveFull, verifying the checksum.
func LoadFull(r io.Reader) (*Index, error) {
	d, flags, rest, err := readFull(r)
	if err != nil {
		return nil, err
	}
	if flags&flagCompressed != 0 {
		// No postings were stored: derive everything from the document.
		return Build(d), nil
	}
	return loadPostings(d, rest)
}

// LoadFullDocument reads only the document of a file written by SaveFull,
// verifying the checksum — for callers that will index it differently (as
// shards) and so have no use for the stored postings.
func LoadFullDocument(r io.Reader) (*doc.Document, error) {
	d, _, _, err := readFull(r)
	return d, err
}

// readFull verifies a SaveFull file and decodes its document, returning the
// payload flags and the postings section that follows the document.
func readFull(r io.Reader) (d *doc.Document, flags uint32, rest []byte, err error) {
	magic := make([]byte, len(fullMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, 0, nil, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
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
	// The buffer grows as the payload arrives: a corrupt length must not
	// claim memory the file does not hold.
	payload, err := io.ReadAll(io.LimitReader(r, int64(plen)))
	if err == nil && uint64(len(payload)) < plen {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
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
		return nil, 0, nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return d, flags, payload[8+docLen:], nil
}

// loadPostings decodes the postings section of a SaveFull payload and
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
	// A token takes at least 8 bytes (its length and its count), a posting 4:
	// no count may size an allocation beyond what the section holds.
	postings := make(map[string][]doc.NodeID, min(int(ntoks), br.Len()/8))
	for i := uint32(0); i < ntoks; i++ {
		tok, err := str()
		if err != nil {
			return nil, fmt.Errorf("%w: reading token: %v", ErrCorrupt, err)
		}
		cnt, err := u32()
		if err != nil {
			return nil, fmt.Errorf("%w: reading posting count: %v", ErrCorrupt, err)
		}
		if int(cnt) > d.Len() || int(cnt) > br.Len()/4 {
			return nil, fmt.Errorf("%w: posting list of %d nodes", ErrCorrupt, cnt)
		}
		nodes := make([]doc.NodeID, cnt)
		for j := range nodes {
			v, err := u32()
			if err != nil {
				return nil, fmt.Errorf("%w: reading posting: %v", ErrCorrupt, err)
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
