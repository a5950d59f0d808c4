package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"lotusx/internal/bench"
	"lotusx/internal/complete"
	"lotusx/internal/core"
	"lotusx/internal/corpus"
	"lotusx/internal/dataset"
	"lotusx/internal/server"
	"lotusx/internal/source"
	"lotusx/internal/twig"
)

// allKinds is the -dataset all list at test scale.
func allKinds() []served {
	var out []served
	for _, k := range dataset.Kinds {
		out = append(out, served{name: string(k), src: source.Source{Kind: string(k), Scale: 1, Seed: 42}})
	}
	return out
}

// loadAt runs the start-up load with the fan-out at the given width.  The
// width is GOMAXPROCS, so pinning that to 1 sends the very same code down
// its sequential schedule — in main and inside corpus alike.
func loadAt(t *testing.T, width int, c *config) (*core.Catalog, string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(width))
	catalog := core.NewCatalog()
	var banner bytes.Buffer
	if err := c.loadDatasets(catalog, allKinds(), false, &banner); err != nil {
		t.Fatal(err)
	}
	return catalog, banner.String()
}

// answers renders everything a backend says about the workload templates of
// its dataset: both result pages of every query, and tag and value
// completions at every node of every twig.
func answers(t *testing.T, b core.Backend, kind string) []string {
	t.Helper()
	ctx := context.Background()
	var out []string
	hits := 0
	for _, wq := range bench.Workload() {
		if string(wq.Kind) != kind {
			continue
		}
		q := twig.MustParse(wq.Text)
		for _, offset := range []int{0, 10} {
			res, err := b.SearchHits(ctx, q, core.SearchOptions{K: 10, Offset: offset, SnippetMax: 400})
			if err != nil {
				t.Fatalf("%s offset %d: %v", wq.ID, offset, err)
			}
			hits += len(res.Hits)
			res.Elapsed = 0
			out = append(out, fmt.Sprintf("%s@%d %+v", wq.ID, offset, *res))
		}
		for i := range q.Nodes() {
			tags, err := b.CompleteTags(ctx, q, i, twig.Child, "", 10)
			if err != nil {
				t.Fatalf("%s tags at %d: %v", wq.ID, i, err)
			}
			values, err := b.CompleteValues(ctx, q, i, "", 10)
			if err != nil {
				t.Fatalf("%s values at %d: %v", wq.ID, i, err)
			}
			out = append(out, fmt.Sprintf("%s node %d tags %+v values %+v", wq.ID, i, tags, values))
		}
	}
	if hits == 0 {
		t.Errorf("%s: no template found anything, the comparison would be vacuous", kind)
	}
	roots, err := b.CompleteTags(ctx, nil, complete.NewRoot, twig.Descendant, "", 10)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, fmt.Sprintf("roots %+v", roots))
}

func stats(t *testing.T, srv *server.Server, name string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats?dataset="+name, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats of %s: %d %s", name, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// TestParallelLoadEqualsSequential: a catalogue built on every core is the
// one a width-1 build produces — same default dataset, same banner, same
// stats, and the same answers to the 13 workload templates — unsharded and
// as persisted 4-shard corpora; and every shard written by the concurrent
// persist reopens to the same answers.
func TestParallelLoadEqualsSequential(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			parDir := t.TempDir()
			par, parBanner := loadAt(t, 4, mustParse(t, "-shards", fmt.Sprint(shards), "-corpus-dir", parDir))
			seq, seqBanner := loadAt(t, 1, mustParse(t, "-shards", fmt.Sprint(shards), "-corpus-dir", t.TempDir()))

			if par.DefaultName() != string(dataset.Kinds[0]) || seq.DefaultName() != par.DefaultName() {
				t.Errorf("default dataset: parallel %q, sequential %q, want %q", par.DefaultName(), seq.DefaultName(), dataset.Kinds[0])
			}
			if !reflect.DeepEqual(par.Names(), seq.Names()) {
				t.Errorf("datasets: parallel %v, sequential %v", par.Names(), seq.Names())
			}
			if parBanner != seqBanner {
				t.Errorf("banner differs:\nparallel:\n%s\nsequential:\n%s", parBanner, seqBanner)
			}
			// Registration follows dataset.Kinds, not completion order:
			// treebank finishes first and must still come last.
			var order []string
			for _, line := range strings.Split(strings.TrimSpace(parBanner), "\n") {
				order = append(order, strings.Fields(line)[1])
			}
			if want := []string{"dblp", "xmark", "treebank"}; !reflect.DeepEqual(order, want) {
				t.Errorf("banner order %v, want %v", order, want)
			}

			parSrv := server.NewCatalogConfig(par, server.Config{})
			seqSrv := server.NewCatalogConfig(seq, server.Config{})
			for _, k := range dataset.Kinds {
				name := string(k)
				pb, err := par.GetBackend(name)
				if err != nil {
					t.Fatal(err)
				}
				sb, err := seq.GetBackend(name)
				if err != nil {
					t.Fatal(err)
				}
				if p, s := stats(t, parSrv, name), stats(t, seqSrv, name); p != s {
					t.Errorf("%s stats: parallel %s, sequential %s", name, p, s)
				}
				want := answers(t, sb, name)
				if got := answers(t, pb, name); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: parallel build answers differ from the sequential build's", name)
				}
				var pn, sn []string
				for _, ne := range pb.Engines() {
					pn = append(pn, ne.Name)
				}
				for _, ne := range sb.Engines() {
					sn = append(sn, ne.Name)
				}
				if !reflect.DeepEqual(pn, sn) {
					t.Errorf("%s shard names: parallel %v, sequential %v", name, pn, sn)
				}

				// Round trip: what persist wrote (one Save per shard, files
				// written concurrently) reopens to the same answers.
				if shards > 1 {
					reopened, err := corpus.Open(filepath.Join(parDir, name), corpus.Config{})
					if err != nil {
						t.Fatalf("reopening %s: %v", name, err)
					}
					if got := answers(t, reopened, name); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: reopened corpus answers differ", name)
					}
					continue
				}
				var file bytes.Buffer
				engine := pb.(*core.Engine)
				if err := engine.Save(&file); err != nil {
					t.Fatal(err)
				}
				reopened, err := core.Open(&file)
				if err != nil {
					t.Fatal(err)
				}
				if got := answers(t, reopened, name); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: reopened engine answers differ", name)
				}
			}
		})
	}
}

// TestLoadFailureReportsItsOwnError: one bad source fails the load with that
// source's error, whatever its siblings were doing, and registers nothing.
func TestLoadFailureReportsItsOwnError(t *testing.T) {
	list := allKinds()
	list[1].src.Kind = "bogus"
	catalog := core.NewCatalog()
	var banner bytes.Buffer
	err := mustParse(t, "-shards", "2").loadDatasets(catalog, list, false, &banner)
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("err = %v, want the bogus kind's error", err)
	}
	if catalog.Len() != 0 || banner.Len() != 0 {
		t.Errorf("failed load registered %d dataset(s) and printed %q", catalog.Len(), banner.String())
	}
}
