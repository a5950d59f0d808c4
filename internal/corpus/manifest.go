package corpus

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	"lotusx/internal/core"
	"lotusx/internal/faults"
	"lotusx/internal/index"
)

// FaultShardOpen names the injection site on the persisted-shard open path;
// the key is the shard file's base name.  A ShortRead injection truncates
// the stream mid-payload — the torn-write crash the quarantine policy exists
// for.
const FaultShardOpen = "corpus/shard-open"

// quarantineSuffix is appended to a shard file that failed to load; the
// suffix takes the file out of the manifest's namespace and shields it from
// the shard-file GC, preserving the evidence for offline inspection.
const quarantineSuffix = ".quarantined"

// On-disk layout of a corpus directory:
//
//	<dir>/MANIFEST.json          the versioned shard table (below)
//	<dir>/shard-<seq>-<i>.ltx    one index file per shard: its document,
//	                             checksummed (core.Engine.Save)
//
// The manifest is the single source of truth: shard files are immutable once
// written (copy-on-write — a republish writes new files rather than
// rewriting live ones), and the manifest is swapped atomically by writing
// MANIFEST.json.tmp and renaming over MANIFEST.json.  A crash between shard
// writes and the rename leaves orphan shard files and the previous intact
// manifest; orphans are garbage-collected on the next successful publish.
const (
	manifestName    = "MANIFEST.json"
	manifestVersion = 1
	shardFilePrefix = "shard-"
	shardFileSuffix = ".ltx"
)

// manifest is the persisted shard table.
type manifest struct {
	// Version is the manifest format version.
	Version int `json:"version"`
	// Name is the corpus name.
	Name string `json:"name"`
	// Seq is the snapshot sequence number, monotonically increasing across
	// publishes.
	Seq uint64 `json:"seq"`
	// Shards lists the live shards, sorted by name.
	Shards []manifestShard `json:"shards"`
}

// manifestShard is one shard entry.
type manifestShard struct {
	Name  string `json:"name"`
	File  string `json:"file"`
	Nodes int    `json:"nodes"`
	// Delta marks an async-ingested delta shard awaiting compaction; absent
	// (false) for base shards, so pre-delta manifests load unchanged.
	Delta bool `json:"delta,omitempty"`
}

// loadManifest reads and validates <dir>/MANIFEST.json.
func loadManifest(dir string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(data)
	if err != nil {
		return nil, fmt.Errorf("corpus: manifest in %s: %w", dir, err)
	}
	return m, nil
}

// parseManifest decodes and validates a manifest.  Undecodable JSON and
// entries no writer produces wrap index.ErrCorrupt; a well-formed manifest
// of another format version wraps index.ErrBadVersion.  Every shard file
// must be a bare name inside the corpus directory: Open reads it and may
// quarantine (rename) it, so a path must not reach anywhere else.
func parseManifest(data []byte) (*manifest, error) {
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%w: %v", index.ErrCorrupt, err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("%w: manifest version %d, want %d", index.ErrBadVersion, m.Version, manifestVersion)
	}
	names := make(map[string]bool, len(m.Shards))
	files := make(map[string]bool, len(m.Shards))
	for _, ms := range m.Shards {
		if validShardName(ms.Name) != nil || names[ms.Name] {
			return nil, fmt.Errorf("%w: shard name %q is invalid or repeated", index.ErrCorrupt, ms.Name)
		}
		f := ms.File
		if f == "" || f == "." || f == ".." || f == manifestName || filepath.Base(f) != f || files[f] {
			return nil, fmt.Errorf("%w: shard %s: file %q is not a bare local name, or repeated", index.ErrCorrupt, ms.Name, f)
		}
		names[ms.Name], files[f] = true, true
	}
	return &m, nil
}

// saveManifest atomically and durably replaces <dir>/MANIFEST.json: the
// temp file is fsynced before the rename (so the rename can never publish a
// torn manifest) and the directory is fsynced after (so the rename itself
// survives a crash).
func saveManifest(dir string, m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, manifestName+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(0o644); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// openShardFile loads one persisted shard and rebuilds its engine,
// translating the index package's typed failures into actionable corpus
// errors that name the file: both corruption and version skew are healed by
// re-ingesting the shard's data.
func openShardFile(dir, file string, reg *faults.Registry) (*core.Engine, error) {
	f, err := os.Open(filepath.Join(dir, file))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// A firing ShortRead injection truncates the stream exactly as a torn
	// write would; an unarmed (or nil) registry returns f untouched.
	var rd io.Reader = f
	rd = reg.Reader(FaultShardOpen, file, rd)
	e, err := core.Open(rd)
	switch {
	case err == nil:
		return e, nil
	case errors.Is(err, index.ErrBadVersion):
		return nil, fmt.Errorf("corpus: shard file %s was written by an incompatible version — re-ingest the corpus: %w", file, err)
	case errors.Is(err, index.ErrCorrupt):
		return nil, fmt.Errorf("corpus: shard file %s is corrupt — remove it from the manifest or re-ingest: %w", file, err)
	default:
		return nil, fmt.Errorf("corpus: opening shard file %s: %w", file, err)
	}
}

// writeShardFile persists one shard under a fresh copy-on-write file name
// and returns the file's base name.
func writeShardFile(dir string, seq uint64, i int, e *core.Engine) (string, error) {
	name := fmt.Sprintf("%s%06d-%03d%s", shardFilePrefix, seq, i, shardFileSuffix)
	f, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return "", err
	}
	if err := e.Save(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	// Durability: the bytes must be on stable storage before the rename
	// makes the file reachable, else a crash can publish a torn shard.
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	if err := os.Rename(f.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(f.Name())
		return "", err
	}
	if err := syncDir(dir); err != nil {
		return "", err
	}
	return name, nil
}

// cleanShardFiles removes shard-*.ltx files not referenced by live — the
// previous snapshots' files and crash leftovers — plus stale MANIFEST.json
// temps (a crash between writing the temp and the rename leaves one behind,
// and nothing else ever touches it again).  Quarantined files (*.quarantined)
// are preserved for inspection.  In-memory readers pinning an older snapshot
// never touch the files again, so removal is safe.  Cleanup failures are
// ignored: orphans cost disk, not correctness.
func cleanShardFiles(dir string, live map[string]bool) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		if strings.HasPrefix(name, manifestName+".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasPrefix(name, shardFilePrefix) {
			continue
		}
		if !strings.HasSuffix(name, shardFileSuffix) && !strings.Contains(name, shardFileSuffix+".tmp") {
			continue
		}
		if live[name] {
			continue
		}
		os.Remove(filepath.Join(dir, name))
	}
}

// quarantineable reports whether a shard-open failure is one the startup
// load policy should quarantine and serve around (data damage or version
// skew confined to that file) rather than refuse the whole corpus (anything
// environmental, like permissions).
func quarantineable(err error) bool {
	return errors.Is(err, index.ErrCorrupt) ||
		errors.Is(err, index.ErrBadVersion) ||
		errors.Is(err, fs.ErrNotExist)
}

// quarantineShardFile renames a failed shard file to <file>.quarantined
// (missing files have nothing to rename) and logs the quarantine.
func quarantineShardFile(dir, file string, cause error, log *slog.Logger) {
	renamed := false
	if !errors.Is(cause, fs.ErrNotExist) {
		if err := os.Rename(filepath.Join(dir, file), filepath.Join(dir, file+quarantineSuffix)); err == nil {
			renamed = true
		}
	}
	log.Warn("corpus: quarantined shard file",
		"dir", dir, "file", file, "renamed", renamed, "cause", cause)
}
