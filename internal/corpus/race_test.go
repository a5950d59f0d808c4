package corpus

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/doc"
	"lotusx/internal/twig"
)

// mkGenDoc builds a tiny document whose three titles identify generation
// gen — every shard in the race test contributes exactly 3 title hits.
func mkGenDoc(t testing.TB, gen int) *doc.Document {
	t.Helper()
	var b strings.Builder
	b.WriteString("<dblp>")
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, "<article><author>gen%d</author><title>t%d-%d</title></article>", gen, gen, i)
	}
	b.WriteString("</dblp>")
	return mustDoc(t, fmt.Sprintf("gen%d", gen), b.String())
}

// TestConcurrentIngestAndQuery hammers one corpus with searches and
// completions while a writer adds, replaces and removes shards — the
// scenario the atomic snapshot swap exists for; run it under -race.
// Correctness invariant: every shard holds exactly 3 titles, so every
// query must see a multiple of 3 hits whatever interleaving it races with;
// a request observing a half-applied mutation would break that.
func TestConcurrentIngestAndQuery(t *testing.T) {
	t.Parallel()
	c := New("race", Config{})
	if err := c.Add("base", mkGenDoc(t, 0)); err != nil {
		t.Fatal(err)
	}

	const mutations = 60
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writer: churn a rotating shard through add/replace/remove, and
	// republish the base shard unchanged.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for gen := 1; gen <= mutations; gen++ {
			name := fmt.Sprintf("churn%d", gen%3)
			switch gen % 4 {
			case 0:
				if err := c.Add("base", mkGenDoc(t, 0)); err != nil {
					t.Error(err)
					return
				}
			case 3:
				// Remove only what an earlier iteration added.
				if err := c.Remove(name); err != nil && !strings.Contains(err.Error(), "no shard") {
					t.Error(err)
					return
				}
			default:
				if err := c.Add(name, mkGenDoc(t, gen)); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	// Readers: full search plus completion on every spin; each request must
	// see an internally consistent shard set.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				q, err := twig.Parse("//article/title")
				if err != nil {
					t.Error(err)
					return
				}
				res, err := c.SearchHits(context.Background(), q, core.SearchOptions{K: 10000})
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Hits)%3 != 0 || len(res.Hits) == 0 {
					t.Errorf("inconsistent snapshot: %d hits (want a positive multiple of 3 across %d shards)", len(res.Hits), res.Shards)
					return
				}
				if _, err := c.CompleteTags(context.Background(), nil, -1, twig.Descendant, "t", 5); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	wg.Wait()

	// The corpus must land consistent: base plus whatever churn shards
	// survived, each contributing its 3 titles.
	q, _ := twig.Parse("//article/title")
	res, err := c.SearchHits(context.Background(), q, core.SearchOptions{K: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if want := c.Snapshot().Len() * 3; len(res.Hits) != want {
		t.Fatalf("final state: %d hits, want %d", len(res.Hits), want)
	}
}

// TestConcurrentPersistedSwaps exercises the copy-on-write persistence
// under concurrent readers: every publish rewrites manifest + shard files
// while searches keep running against pinned snapshots.
func TestConcurrentPersistedSwaps(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c := New("race", Config{Dir: dir})
	if err := c.Add("base", mkGenDoc(t, 0)); err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for gen := 1; gen <= 20; gen++ {
			if err := c.Add("hot", mkGenDoc(t, gen)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			q, err := twig.Parse("//article/author")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := c.SearchHits(context.Background(), q, core.SearchOptions{K: 100}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// Disk state equals memory state after the dust settles.
	re, err := Open(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if re.Snapshot().Len() != c.Snapshot().Len() || re.Seq() != c.Seq() {
		t.Fatalf("reopened: %d shards seq %d; live: %d shards seq %d",
			re.Snapshot().Len(), re.Seq(), c.Snapshot().Len(), c.Seq())
	}
}
