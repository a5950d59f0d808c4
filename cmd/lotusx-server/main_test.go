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
	"slices"
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

// TestMisappliedFlags: the flags derive the role — router with
// -shard-servers, shard with a -slice other than 0/1, serve otherwise — and
// every role-specific flag parses in the roles that read it and is refused,
// naming itself and what set the role, in every other role.
func TestMisappliedFlags(t *testing.T) {
	values := map[string]string{
		"shards": "2", "admin": "true", "corpus-dir": "d", "ingest-workers": "1",
		"ingest-queue": "1", "compact-threshold": "1", "max-ingest-bytes": "1",
		"shard-policy": "failfast", "shard-timeout": "1s", "breaker-failures": "1",
		"breaker-cooldown": "1s", "slice": "0/2", "remote-dataset": "x",
		"hedge-delay": "1ms", "cluster-name": "c",
	}
	if len(values) != len(modeFlags) {
		t.Fatalf("%d test values for %d role-specific flags", len(values), len(modeFlags))
	}
	roles := map[string][]string{
		roleServe:  {"-dataset", "xmark"},
		roleShard:  {"-dataset", "xmark", "-slice", "1/2"},
		roleRouter: {"-shard-servers", "http://a:1;http://b:1"},
	}
	for name, readers := range modeFlags {
		v, ok := values[name]
		if !ok {
			t.Fatalf("no test value for -%s", name)
		}
		for role, base := range roles {
			args := append(append([]string{}, base...), "-"+name+"="+v)
			applies := slices.Contains(strings.Fields(readers), role)
			c, err := parse(flag.NewFlagSet("lotusx-server", flag.ContinueOnError), args)
			want := fmt.Sprintf("-%s does not apply to the %s role (%s)", name, role, roleSetBy[role])
			switch {
			case applies && err != nil:
				t.Errorf("%v: %v, want it parsed", args, err)
			case applies && name != "slice" && c.role != role:
				t.Errorf("%v: role %s, want %s", args, c.role, role)
			case !applies && (err == nil || err.Error() != want):
				t.Errorf("%v: err = %v, want %q", args, err, want)
			}
		}
	}
	for _, tc := range []struct {
		args []string
		role string
	}{
		{[]string{"-dataset", "xmark"}, roleServe},
		{[]string{"-dataset", "xmark", "-slice", "0/1"}, roleServe},
		{[]string{"-dataset", "xmark", "-slice", "0/2"}, roleShard},
		{[]string{"-shard-servers", "http://a:1"}, roleRouter},
		{[]string{"-admin"}, roleServe},
	} {
		if c := mustParse(t, tc.args...); c.role != tc.role {
			t.Errorf("%v: role %s, want %s", tc.args, c.role, tc.role)
		}
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-in", "data/dblp.xml", "-dataset", "xmark"}, "exclusive"},
		{[]string{"-in", "a.xml", "-index", "a.ltx"}, "exclusive"},
		{[]string{"-dataset", "xmark", "-shard-servers", "http://a:1"}, "exclusive"},
		{[]string{"-in", "a.xml", "-shard-servers", "http://a:1"}, "exclusive"},
		{[]string{"-index", "a.ltx", "-shard-servers", "http://a:1"}, "exclusive"},
		{[]string{"-shard-servers", "http://a:1", "-slice", "1/2"}, "-slice does not apply to the router role (set by -shard-servers)"},
		{[]string{"-shard-servers", "http://a:1", "-scale", "2"}, "-scale and -seed apply only with -dataset"},
		{[]string{"-shard-servers", " ; "}, "names no servers"},
		{[]string{"-scale", "2"}, "-scale and -seed apply only with -dataset"},
		{[]string{"-in", "a.xml", "-seed", "7"}, "-scale and -seed apply only with -dataset"},
		{[]string{"-shard-servers", "http://a:1", "-shards", "4", "-corpus-dir", "x"}, "-corpus-dir does not apply to the router role"},
		{[]string{"-dataset", "all", "-slice", "0/2"}, "-dataset all does not apply to the shard role (set by -slice)"},
		{[]string{"-dataset", "xmark", "-slice", "2/2"}, "bad -slice"},
		{[]string{"-shards", "0"}, "bad -shards"},
		// The role flag is gone: the flags above derive the role.
		{[]string{"-mode=router", "-shard-servers", "http://a:1"}, "flag provided but not defined: -mode"},
	} {
		fs := flag.NewFlagSet("lotusx-server", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if _, err := parse(fs, tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
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
	// The flat-r* cases are the lists the removed -replication flag used to
	// chunk (R=1: one shard per URL; R=2: pairs): with only the grouped
	// spelling left, a list with no ";" is one shard's replica set.
	cases := []struct {
		name string
		in   string
		want [][]string
	}{
		{
			"flat-r1", "http://a:1,http://b:1",
			[][]string{{"http://a:1", "http://b:1"}},
		},
		{
			"flat-r2", "http://a:1,http://a:2,http://b:1,http://b:2",
			[][]string{{"http://a:1", "http://a:2", "http://b:1", "http://b:2"}},
		},
		{
			"semicolons-are-shards", "http://a:1;http://b:1",
			[][]string{{"http://a:1"}, {"http://b:1"}},
		},
		{
			"grouped", "http://a:1,http://a:2;http://b:1",
			[][]string{{"http://a:1", "http://a:2"}, {"http://b:1"}},
		},
		{
			"grouped-whitespace", " http://a:1 , http://a:2 ; http://b:1 ;",
			[][]string{{"http://a:1", "http://a:2"}, {"http://b:1"}},
		},
		{
			"single", "http://a:1",
			[][]string{{"http://a:1"}},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got, err := parseShardServers(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
	for _, in := range []string{"", "   ", ";;", " , ; , "} {
		if _, err := parseShardServers(in); err == nil {
			t.Errorf("parseShardServers(%q) accepted, want error", in)
		}
	}
}
