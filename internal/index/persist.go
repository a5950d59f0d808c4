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
// only needs re-writing by a build that reads it.
var (
	// ErrCorrupt marks a file SaveDocument never wrote: bad magic,
	// truncation, checksum mismatch, or an internally inconsistent payload.
	ErrCorrupt = errors.New("index: corrupt index file")
	// ErrBadVersion marks a well-formed file of a version this build cannot
	// read.
	ErrBadVersion = errors.New("index: unsupported index file version")
)

// An index file is its document.  Every structure an Index holds is a pure
// function of the document and Build derives it at about parse speed, so the
// file stores nothing else, and the CRC32 over the payload makes a truncated
// or corrupted file fail to load rather than be misread.
//
// Layout: magic "LTXI" | version u32 | payload len u64 | crc32 u32 | payload
// where the version-3 payload is the document (doc.Save).
//
// Earlier builds wrote two more versions, which still load.  Version 1's
// payload is a length-prefixed document followed by the token postings, and
// version 2 puts a flags word before the same document.  The reader skips
// the flags and ignores the postings.
const (
	fileMagic   = "LTXI"
	fileVersion = 3

	// versionPostings and versionFlags are the older payloads: a u64
	// length-prefixed document, then stored postings (ignored), after a
	// flags word (skipped) in version 2.
	versionPostings = 1
	versionFlags    = 2
)

// SaveDocument writes d as an index file.
func SaveDocument(w io.Writer, d *doc.Document) error {
	var payload bytes.Buffer
	if err := d.Save(&payload); err != nil {
		return err
	}
	var hdr [20]byte
	copy(hdr[:], fileMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], fileVersion)
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(payload.Bytes()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload.Bytes())
	return err
}

// LoadDocument reads the document of an index file of any version,
// verifying the checksum; the caller indexes it (Build).
func LoadDocument(r io.Reader) (*doc.Document, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %v", ErrCorrupt, err)
	}
	if string(hdr[:4]) != fileMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:4])
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, fmt.Errorf("%w: reading header: %v", ErrCorrupt, err)
	}
	version := binary.LittleEndian.Uint32(hdr[4:8])
	if version < versionPostings || version > fileVersion {
		return nil, fmt.Errorf("%w: got %d, want 1 to %d", ErrBadVersion, version, fileVersion)
	}
	plen := binary.LittleEndian.Uint64(hdr[8:16])
	if plen > 1<<34 {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, plen)
	}
	// The buffer grows as the payload arrives: a corrupt length must not
	// claim memory the file does not hold.
	payload, err := io.ReadAll(io.LimitReader(r, int64(plen)))
	if err == nil && uint64(len(payload)) < plen {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[16:20]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}

	if version < fileVersion {
		if version == versionFlags {
			if len(payload) < 4 {
				return nil, fmt.Errorf("%w: payload too short", ErrCorrupt)
			}
			payload = payload[4:]
		}
		if len(payload) < 8 {
			return nil, fmt.Errorf("%w: payload too short", ErrCorrupt)
		}
		docLen := binary.LittleEndian.Uint64(payload[:8])
		if docLen > uint64(len(payload)-8) {
			return nil, fmt.Errorf("%w: document length %d", ErrCorrupt, docLen)
		}
		payload = payload[8 : 8+docLen]
	}
	d, err := doc.Load(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return d, nil
}
