package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lotusx/internal/core"
	"lotusx/internal/twig"
)

var update = flag.Bool("update", false, "rewrite testdata/flags.golden")

// mustParse parses a command line the way main does.
func mustParse(t *testing.T, args ...string) *config {
	t.Helper()
	c, err := parse(flag.NewFlagSet("lotusx-server", flag.ContinueOnError), args)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestFlagsGolden pins the flag surface: -h prints exactly
// testdata/flags.golden.  After an intentional change, regenerate with
// go test ./cmd/lotusx-server -run TestFlagsGolden -update.
func TestFlagsGolden(t *testing.T) {
	fs := flag.NewFlagSet("lotusx-server", flag.ContinueOnError)
	if _, err := parse(fs, nil); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	fs.SetOutput(&got)
	fs.PrintDefaults()
	golden := filepath.Join("testdata", "flags.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag surface drifted from %s:\n%s", golden, got.String())
	}
}

// TestMisappliedFlags: every mode-specific flag parses in the modes that
// read it and is refused, naming itself, in every other mode.
func TestMisappliedFlags(t *testing.T) {
	values := map[string]string{
		"in": "x.xml", "index": "x.ltx", "dataset": "xmark", "scale": "2", "seed": "7",
		"shards": "2", "admin": "true", "corpus-dir": "d", "ingest-workers": "1",
		"ingest-queue": "1", "compact-threshold": "1", "max-ingest-bytes": "1",
		"shard-policy": "failfast", "shard-timeout": "1s", "breaker-failures": "1",
		"breaker-cooldown": "1s", "slice": "0/2", "shard-servers": "http://b:1",
		"replication": "1", "remote-dataset": "x", "hedge-delay": "1ms",
		"cluster-name": "c", "federate-interval": "1s", "retry-budget": "0.5",
	}
	if len(values) != len(modeFlags) {
		t.Fatalf("%d test values for %d mode-specific flags", len(values), len(modeFlags))
	}
	for name, modes := range modeFlags {
		v, ok := values[name]
		if !ok {
			t.Fatalf("no test value for -%s", name)
		}
		for _, mode := range []string{"serve", "shard", "router"} {
			args := []string{"-mode=" + mode, "-" + name + "=" + v}
			applies := strings.Contains(" "+modes+" ", " "+mode+" ")
			if applies && (name == "scale" || name == "seed") {
				args = append(args, "-dataset", "xmark")
			}
			if mode == "router" && name != "shard-servers" {
				args = append(args, "-shard-servers", "http://a:1")
			}
			_, err := parse(flag.NewFlagSet("lotusx-server", flag.ContinueOnError), args)
			want := fmt.Sprintf("-%s does not apply to -mode=%s", name, mode)
			switch {
			case applies && err != nil:
				t.Errorf("%v: %v, want it parsed", args, err)
			case !applies && (err == nil || err.Error() != want):
				t.Errorf("%v: err = %v, want %q", args, err, want)
			}
		}
	}
	for _, args := range [][]string{
		{"-dataset", "xmark", "-slice", "1/2"},
		{"-in", "data/dblp.xml", "-dataset", "xmark"},
		{"-in", "a.xml", "-index", "a.ltx"},
		{"-scale", "2"},
		{"-in", "a.xml", "-seed", "7"},
		{"-mode=router", "-shards", "4", "-corpus-dir", "x"},
		{"-mode=shard", "-dataset", "all"},
		{"-mode=proxy"},
		{"-shards", "0"},
	} {
		if _, err := parse(flag.NewFlagSet("lotusx-server", flag.ContinueOnError), args); err == nil {
			t.Errorf("%v parsed, want an error", args)
		}
	}
}

// TestFileDatasetNamedByBase: a file dataset is served and persisted under
// the base of its path, so a restart's reload finds it and answers the same
// first page.
func TestFileDatasetNamedByBase(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	xml := filepath.Join(dir, "sub", "x.xml")
	if err := os.WriteFile(xml, []byte(drainXML), 0o644); err != nil {
		t.Fatal(err)
	}
	corpusDir := filepath.Join(dir, "corpora")
	built := core.NewCatalog()
	if err := mustParse(t, "-in", xml, "-shards", "2", "-corpus-dir", corpusDir).load(built, io.Discard); err != nil {
		t.Fatal(err)
	}
	reloaded := core.NewCatalog()
	if err := mustParse(t, "-admin", "-corpus-dir", corpusDir).reloadCorpora(reloaded, io.Discard); err != nil {
		t.Fatal(err)
	}
	page := func(c *core.Catalog) string {
		t.Helper()
		if names := c.Names(); !reflect.DeepEqual(names, []string{"x.xml"}) {
			t.Fatalf("datasets %v, want [x.xml]", names)
		}
		b, err := c.GetBackend("x.xml")
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.SearchHits(context.Background(), twig.MustParse("//article/title"), core.SearchOptions{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Hits) == 0 || res.Shards != 2 {
			t.Fatalf("first page: %d hits over %d shards, want hits over 2", len(res.Hits), res.Shards)
		}
		res.Elapsed = 0
		return fmt.Sprintf("%+v", *res)
	}
	if got, want := page(reloaded), page(built); got != want {
		t.Errorf("reloaded first page\n%s\nwant\n%s", got, want)
	}
}

func TestParseSlice(t *testing.T) {
	t.Parallel()
	good := []struct {
		in         string
		idx, parts int
	}{
		{"0/1", 0, 1},
		{"0/4", 0, 4},
		{"3/4", 3, 4},
		{" 1 / 2 ", 1, 2},
	}
	for _, tc := range good {
		idx, parts, err := parseSlice(tc.in)
		if err != nil || idx != tc.idx || parts != tc.parts {
			t.Errorf("parseSlice(%q) = (%d, %d, %v), want (%d, %d, nil)",
				tc.in, idx, parts, err, tc.idx, tc.parts)
		}
	}
	for _, in := range []string{"", "1", "2/2", "4/2", "-1/2", "0/0", "a/b", "1/2/3"} {
		if _, _, err := parseSlice(in); err == nil {
			t.Errorf("parseSlice(%q) accepted, want error", in)
		}
	}
}

func TestParseShardServers(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name        string
		in          string
		replication int
		want        [][]string
	}{
		{
			"flat-r1", "http://a:1,http://b:1", 1,
			[][]string{{"http://a:1"}, {"http://b:1"}},
		},
		{
			"flat-r2", "http://a:1,http://a:2,http://b:1,http://b:2", 2,
			[][]string{{"http://a:1", "http://a:2"}, {"http://b:1", "http://b:2"}},
		},
		{
			"grouped", "http://a:1,http://a:2;http://b:1", 1,
			[][]string{{"http://a:1", "http://a:2"}, {"http://b:1"}},
		},
		{
			"grouped-whitespace", " http://a:1 , http://a:2 ; http://b:1 ", 2,
			[][]string{{"http://a:1", "http://a:2"}, {"http://b:1"}},
		},
		{
			"single", "http://a:1", 1,
			[][]string{{"http://a:1"}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, err := parseShardServers(tc.in, tc.replication)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}

	bad := []struct {
		in          string
		replication int
	}{
		{"", 1},
		{"   ", 2},
		{"http://a:1,http://b:1,http://c:1", 2}, // 3 URLs not divisible by R=2
		{"http://a:1", 0},                       // replication < 1
		{";;", 1},                               // groups name no servers
	}
	for _, tc := range bad {
		if _, err := parseShardServers(tc.in, tc.replication); err == nil {
			t.Errorf("parseShardServers(%q, %d) accepted, want error", tc.in, tc.replication)
		}
	}
}
