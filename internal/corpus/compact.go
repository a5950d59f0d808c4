package corpus

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"lotusx/internal/core"
	"lotusx/internal/doc"
	"lotusx/internal/obs"
)

// Delta compaction: async ingest (internal/ingest + the admin shard routes)
// lands small delta shards, each carrying a handful of records under its own
// root copy.  Every delta widens the fan-out — one more engine per query —
// so a background compactor periodically folds them into one compacted base
// shard: it pins a snapshot, copies the pinned deltas' records under one
// fresh root, indexes the merged document (all off the read path), and
// publishes a swap that removes exactly those deltas and adds the compacted
// shard.  Readers see the old shard set or the new one, never both halves.
//
// Deltas that landed after the pin simply stay for the next round, and a
// pinned delta removed mid-build aborts the swap with ErrCompactConflict —
// compaction never overwrites a concurrent mutation, it just retries later.

// FaultCompact names the injection site at the head of CompactDeltas; the
// key is the corpus name.  A firing injection fails the compaction as if the
// merge had — the deterministic path to a failed compaction job.
const FaultCompact = "corpus/compact"

// ErrCompactConflict reports that a concurrent mutation removed one of the
// pinned delta shards between build and publish; the compaction gave way and
// should be retried against the new snapshot.
var ErrCompactConflict = errors.New("corpus: delta set changed during compaction")

// compactedPrefix names compacted base shards: "compacted/<seq>-<i>" where
// seq is the pinned snapshot's sequence, so names are unique across rounds
// (a pinned sequence compacts successfully at most once).
const compactedPrefix = "compacted"

// CompactionResult reports one compaction round.
type CompactionResult struct {
	// Merged counts the delta shards folded away.
	Merged int
	// Into names the compacted shards produced (one per distinct root tag).
	Into []string
	// Nodes is the total node count of the compacted shards.
	Nodes int
	// Seq is the snapshot sequence the compaction published.
	Seq uint64
	// Elapsed is the wall-clock of the whole round (build + publish).
	Elapsed time.Duration
}

// CompactDeltas merges up to maxBatch delta shards (0 or negative means all)
// into compacted base shards and publishes the swap.  Deltas are grouped by
// their document's root tag — heterogeneous datasets compact into one base
// shard per root shape.  With no deltas it returns (nil, nil): nothing to do
// is not an error.  The merge and index build run before the mutation lock
// is taken, so queries and other writers never wait on compaction work.
func (c *Corpus) CompactDeltas(ctx context.Context, maxBatch int) (*CompactionResult, error) {
	start := time.Now()
	if err := c.faults.Fire(ctx, FaultCompact, c.name); err != nil {
		return nil, fmt.Errorf("corpus: compacting %s: %w", c.name, err)
	}
	snap := c.Snapshot()
	var deltas []*shard
	for _, sh := range snap.shards {
		if sh.delta {
			deltas = append(deltas, sh)
		}
		if maxBatch > 0 && len(deltas) == maxBatch {
			break
		}
	}
	if len(deltas) == 0 {
		return nil, nil
	}

	sp, ctx := obs.Start(ctx, "compact:build")
	sp.SetInt("deltas", len(deltas))
	fresh, err := buildCompacted(c.name, snap.seq, deltas)
	sp.SetErr(err)
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &CompactionResult{Merged: len(deltas)}
	for _, sh := range fresh {
		res.Into = append(res.Into, sh.name)
		res.Nodes += sh.engine.Document().Len()
	}

	pub := obs.StartLeaf(ctx, "compact:publish")
	err = c.publish(func(shards []*shard) ([]*shard, error) {
		// The publish lock serializes us against every other mutation; verify
		// the pinned deltas are all still live (same shard values, not merely
		// same names) before swapping them out.
		live := make(map[*shard]bool, len(shards))
		for _, sh := range shards {
			live[sh] = true
		}
		for _, d := range deltas {
			if !live[d] {
				return nil, ErrCompactConflict
			}
		}
		drop := make(map[*shard]bool, len(deltas))
		for _, d := range deltas {
			drop[d] = true
		}
		next := make([]*shard, 0, len(shards)-len(deltas)+len(fresh))
		for _, sh := range shards {
			if !drop[sh] {
				next = append(next, sh)
			}
		}
		return append(next, fresh...), nil
	})
	pub.SetErr(err)
	pub.End()
	if err != nil {
		return nil, err
	}
	res.Seq = c.Seq()
	res.Elapsed = time.Since(start)
	return res, nil
}

// buildCompacted merges each root-tag group of deltas into one merged
// document and indexes it — the expensive half of compaction, done with no
// locks held.  Groups preserve delta order, and the compacted shard carries
// the root attributes of its group's first delta (replicated identically
// across a split group's parts, so first-wins loses nothing).
func buildCompacted(corpusName string, pinSeq uint64, deltas []*shard) ([]*shard, error) {
	type group struct {
		rootTag string
		docs    []*doc.Document
	}
	var groups []*group
	byTag := make(map[string]*group)
	for _, sh := range deltas {
		d := sh.engine.Document()
		tag := d.TagName(d.Root())
		g := byTag[tag]
		if g == nil {
			g = &group{rootTag: tag}
			byTag[tag] = g
			groups = append(groups, g)
		}
		g.docs = append(g.docs, d)
	}

	out := make([]*shard, 0, len(groups))
	for gi, g := range groups {
		merged, err := mergeDeltaDocs(fmt.Sprintf("%s-compacted-%06d-%d", corpusName, pinSeq, gi), g.docs)
		if err != nil {
			return nil, err
		}
		out = append(out, &shard{
			name:   fmt.Sprintf("%s/%06d-%d", compactedPrefix, pinSeq, gi),
			engine: core.FromDocument(merged),
		})
	}
	return out, nil
}

// mergeDeltaDocs concatenates the records of docs under one copy of the
// first one's root element, built from their node tables — the same re-wrap
// scheme SplitDocument uses, run in reverse.  Each root's direct text joins
// the merged root's, in document order.
func mergeDeltaDocs(name string, docs []*doc.Document) (*doc.Document, error) {
	first := docs[0]
	nodes := head(first, first.Root())
	for _, d := range docs {
		nodes += d.Len() - head(d, d.Root())
	}
	b := doc.NewBuilder(name, nodes)
	b.StartFrom(first, first.Root())
	// Root texts with no record between them read back from XML as one
	// chunk, so they join by the newline that separated them there.
	var text []string
	for _, d := range docs {
		r := d.Root()
		if v := d.Value(r); v != "" {
			text = append(text, v)
		}
		for c := d.FirstChild(r); c != doc.None; c = d.NextSibling(c) {
			if d.Kind(c) == doc.Element {
				if len(text) > 0 {
					b.Text(strings.Join(text, "\n"))
					text = text[:0]
				}
				b.Copy(d, c)
			}
		}
	}
	if len(text) > 0 {
		b.Text(strings.Join(text, "\n"))
	}
	b.End()
	return b.Done()
}
