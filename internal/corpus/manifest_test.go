package corpus

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"lotusx/internal/index"
)

const validManifest = `{"version": 1, "name": "lib", "seq": 3, "shards": [
	{"name": "bib/000", "file": "shard-000003-000.ltx", "nodes": 10},
	{"name": "bib/001", "file": "shard-000003-001.ltx", "nodes": 12, "delta": true}]}`

// TestParseManifestRejects: entries no writer produces are corrupt, a
// manifest of another format version is skewed, and both errors are typed.
func TestParseManifestRejects(t *testing.T) {
	if m, err := parseManifest([]byte(validManifest)); err != nil || len(m.Shards) != 2 || !m.Shards[1].Delta {
		t.Fatalf("valid manifest: %+v, %v", m, err)
	}
	entry := func(name, file string) string {
		return `{"name": "` + name + `", "file": "` + file + `"}`
	}
	manifestOf := func(entries ...string) string {
		out := `{"version": 1, "name": "lib", "shards": [`
		for i, e := range entries {
			if i > 0 {
				out += ","
			}
			out += e
		}
		return out + `]}`
	}
	corrupt := map[string]string{
		"not json":         `{"version": 1, "shards": [`,
		"parent escape":    manifestOf(entry("evil", "../victim.ltx")),
		"absolute path":    manifestOf(entry("evil", "/tmp/victim.ltx")),
		"subdirectory":     manifestOf(entry("evil", "sub/shard.ltx")),
		"dot":              manifestOf(entry("evil", ".")),
		"dot dot":          manifestOf(entry("evil", "..")),
		"empty file":       manifestOf(entry("evil", "")),
		"the manifest":     manifestOf(entry("evil", manifestName)),
		"empty name":       manifestOf(entry("", "shard-1.ltx")),
		"name with space":  manifestOf(entry("a b", "shard-1.ltx")),
		"repeated name":    manifestOf(entry("a", "shard-1.ltx"), entry("a", "shard-2.ltx")),
		"repeated file":    manifestOf(entry("a", "shard-1.ltx"), entry("b", "shard-1.ltx")),
		"shards not array": `{"version": 1, "shards": {}}`,
	}
	for label, data := range corrupt {
		if _, err := parseManifest([]byte(data)); !errors.Is(err, index.ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", label, err)
		}
	}
	if _, err := parseManifest([]byte(`{"version": 2, "shards": []}`)); !errors.Is(err, index.ErrBadVersion) {
		t.Errorf("version 2: err = %v, want ErrBadVersion", err)
	}
}

// TestOpenRefusesManifestEscape: a manifest entry whose file points outside
// the corpus directory at a checksum-corrupt file refuses the corpus, and
// the file it names is neither read into the corpus nor quarantined
// (renamed) where it lies.
func TestOpenRefusesManifestEscape(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "lib")
	c := New("lib", Config{Dir: dir})
	if err := c.AddSplit("bib", mustDoc(t, "bib", bibXML), 2); err != nil {
		t.Fatal(err)
	}
	m, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, m.Shards[0].File))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	victim := filepath.Join(root, "victim.ltx")
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m.Shards = append(m.Shards, manifestShard{Name: "evil", File: "../victim.ltx"})
	if err := saveManifest(dir, m); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, quietConfig()); !errors.Is(err, index.ErrCorrupt) {
		t.Fatalf("Open = %v, want an ErrCorrupt refusal", err)
	}
	if _, err := os.Stat(victim); err != nil {
		t.Fatalf("the file outside the corpus moved: %v", err)
	}
	if _, err := os.Stat(victim + quarantineSuffix); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a file outside the corpus was quarantined: %v", err)
	}
}

// rewriteAsCompressed leaves a persisted corpus the way a build with index
// compression wrote it: every shard file in the version-2 layout with the
// compressed flag (a flags word, then the length-prefixed document and no
// postings), and every manifest entry marked "compressed": true.
func rewriteAsCompressed(t *testing.T, dir string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, s := range m["shards"].([]any) {
		entry := s.(map[string]any)
		entry["compressed"] = true
		path := filepath.Join(dir, entry["file"].(string))
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := index.LoadDocument(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		var docBuf bytes.Buffer
		if err := d.Save(&docBuf); err != nil {
			t.Fatal(err)
		}
		payload := binary.LittleEndian.AppendUint32(nil, 1) // the compressed flag
		payload = binary.LittleEndian.AppendUint64(payload, uint64(docBuf.Len()))
		payload = append(payload, docBuf.Bytes()...)
		file := binary.LittleEndian.AppendUint32([]byte("LTXI"), 2)
		file = binary.LittleEndian.AppendUint64(file, uint64(len(payload)))
		file = binary.LittleEndian.AppendUint32(file, crc32.ChecksumIEEE(payload))
		if err := os.WriteFile(path, append(file, payload...), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// FuzzManifest checks that parseManifest answers arbitrary bytes with a
// manifest whose every file is a bare local name, or with a typed error
// (ErrCorrupt, ErrBadVersion) — never a panic.
func FuzzManifest(f *testing.F) {
	f.Add([]byte(validManifest))
	f.Add([]byte(`{"version": 1, "shards": [{"name": "evil", "file": "../victim.ltx"}]}`))
	f.Add([]byte(`{"version": 1, "shards": [{"name": "a", "file": "s.ltx", "compressed": true}]}`))
	f.Add([]byte(`{"version": 7}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := parseManifest(data)
		if err != nil {
			if !errors.Is(err, index.ErrCorrupt) && !errors.Is(err, index.ErrBadVersion) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for _, ms := range m.Shards {
			if filepath.Base(ms.File) != ms.File || ms.File == ".." || validShardName(ms.Name) != nil {
				t.Fatalf("accepted entry %+v", ms)
			}
		}
	})
}
