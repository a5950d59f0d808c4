// Package index builds the access structures twig evaluation runs on: per-tag
// node streams in document order (the inputs of structural joins), a value
// inverted index with token postings (accelerating equality and containment
// predicates), exact-value lookup, and completion tries over tag names and
// per-tag values.
//
// An Index is immutable after Build and safe for concurrent readers.  It is
// derived deterministically from its Document, so an index file stores the
// document alone and the reader rebuilds the rest with Build (see
// SaveDocument and LoadDocument).
package index

import (
	"slices"
	"sort"
	"strings"
	"sync"

	"lotusx/internal/doc"
	"lotusx/internal/trie"
	"lotusx/internal/xlabel"
)

// Index holds all access structures over one document.
type Index struct {
	document *doc.Document

	// streams[tag] lists the nodes with that tag in document order.
	streams [][]doc.NodeID

	// postings maps a lowercase token to the nodes whose value contains it,
	// in document order.
	postings map[string][]doc.NodeID

	// exact maps a lowercase full value to the nodes carrying exactly that
	// value, in document order.
	exact map[string][]doc.NodeID

	// tagTrie completes tag names; entry weight is the tag's occurrence
	// count and the datum its TagID.
	tagTrie *trie.Trie

	// valueTries[tag] completes full values of nodes with that tag.
	valueTries map[doc.TagID]*trie.Trie

	// valued counts nodes with a non-empty value (the N of idf).
	valued int

	// allElems caches the wildcard stream (all element nodes); built lazily.
	allElemInit sync.Once
	allElems    []doc.NodeID

	// Extended Dewey labels (TJFast's position-aware labels); built lazily
	// on first TJFast evaluation.
	xlabelInit   sync.Once
	xlabelTrans  *xlabel.Transducer
	xlabelLabels *xlabel.Arena
}

// ExtDewey returns the document's extended Dewey transducer and label
// arena, building them on first use.
func (ix *Index) ExtDewey() (*xlabel.Transducer, *xlabel.Arena) {
	ix.xlabelInit.Do(func() {
		ix.xlabelTrans = xlabel.BuildTransducer(ix.document)
		ix.xlabelLabels = xlabel.Encode(ix.document, ix.xlabelTrans)
	})
	return ix.xlabelTrans, ix.xlabelLabels
}

// Build constructs the index for d.  It runs on the calling goroutine only:
// an ingest or compaction job that builds beside live readers takes one
// core, and whole-dataset builds parallelize across documents instead
// (internal/fanout).
func Build(d *doc.Document) *Index {
	ix := newRaw(d)
	ix.postings = make(map[string][]doc.NodeID)
	ix.scanValues(func(n doc.NodeID, v string) {
		ix.valued++
		eachToken(v, func(tok string, _, _ int) {
			// Postings are in document order, so a token repeated inside
			// one value is a duplicate exactly when its list already ends
			// in n.
			list := ix.postings[tok]
			if len(list) == 0 || list[len(list)-1] != n {
				ix.postings[tok] = append(list, n)
			}
		})
	})
	return ix
}

// BuildOptions and BuildWith outlive the removed compressed substrate as an
// alias of Build.  Their only caller is benchmark/oracle.go, a separate
// module that times the index build through them.
type BuildOptions struct{}

// BuildWith is Build; see BuildOptions.
func BuildWith(d *doc.Document, _ BuildOptions) *Index { return Build(d) }

// newRaw starts a raw index over d with its tag streams and tag trie — the
// structures that need only the tag of every node.  A counting pass sizes
// the streams exactly, carved out of one backing array.
func newRaw(d *doc.Document) *Index {
	ntags := d.Tags().Len()
	ix := &Index{
		document:   d,
		streams:    make([][]doc.NodeID, ntags),
		exact:      make(map[string][]doc.NodeID),
		valueTries: make(map[doc.TagID]*trie.Trie),
	}
	counts := make([]int, ntags)
	for i := 0; i < d.Len(); i++ {
		counts[d.Tag(doc.NodeID(i))]++
	}
	backing := make([]doc.NodeID, d.Len())
	off := 0
	for tag, c := range counts {
		ix.streams[tag] = backing[off : off : off+c]
		off += c
	}
	for i := 0; i < d.Len(); i++ {
		n := doc.NodeID(i)
		tag := d.Tag(n)
		ix.streams[tag] = append(ix.streams[tag], n)
	}
	tags := make([]trie.Entry, ntags)
	for id := range tags {
		tags[id] = trie.Entry{Word: strings.ToLower(d.Tags().Name(doc.TagID(id))), Weight: int64(counts[id]), Datum: int32(id)}
	}
	ix.tagTrie = trie.Build(tags)
	return ix
}

// scanValues fills the exact map from every valued node in document order,
// handing each to visit as well, then builds the per-tag value tries from
// it.
func (ix *Index) scanValues(visit func(n doc.NodeID, v string)) {
	d := ix.document
	for i := 0; i < d.Len(); i++ {
		n := doc.NodeID(i)
		v := d.Value(n)
		if v == "" {
			continue
		}
		lower := foldValue(v)
		ix.exact[lower] = append(ix.exact[lower], n)
		visit(n, v)
	}
	ix.buildValueTries()
}

// buildValueTries gives every tag with a valued node the trie of its folded
// values: one entry per distinct value, weighted by how many of the tag's
// nodes carry it, with the first such node as its datum.  The exact map
// holds each value's nodes in document order, so one pass over it collects
// the entries, a value's entry for a tag being the last one appended while
// that value is visited.
func (ix *Index) buildValueTries() {
	d := ix.document
	entries := make([][]trie.Entry, d.Tags().Len())
	visit := make([]int, d.Tags().Len()) // the value visit that last appended to a tag
	seq := 0
	for v, nodes := range ix.exact {
		seq++
		for _, n := range nodes {
			tag := d.Tag(n)
			if visit[tag] == seq {
				entries[tag][len(entries[tag])-1].Weight++
				continue
			}
			visit[tag] = seq
			entries[tag] = append(entries[tag], trie.Entry{Word: v, Weight: 1, Datum: int32(n)})
		}
	}
	for tag, es := range entries {
		if len(es) == 0 {
			continue
		}
		// Folded values are valid UTF-8 (strings.ToLower rewrites an invalid
		// byte as U+FFFD) and distinct, so Build merges none of them.
		slices.SortFunc(es, func(a, b trie.Entry) int { return strings.Compare(a.Word, b.Word) })
		ix.valueTries[doc.TagID(tag)] = trie.Build(es)
	}
}

// Document returns the indexed document.
func (ix *Index) Document() *doc.Document { return ix.document }

// foldValue is THE canonical fold for the exact-value and value-trie
// keyspaces.  Build and every lookup go through it, so a probe can never
// miss an indexed value for folding reasons.
func foldValue(s string) string { return strings.ToLower(strings.TrimSpace(s)) }

// foldToken is THE canonical fold for the token-postings keyspace: the same
// fold Tokenize applies while indexing.  A single-token input ("Title",
// " TITLE.") maps onto its indexed form; input that does not reduce to one
// token keeps a plain lowercase fold, which by construction cannot collide
// with a postings key.
func foldToken(s string) string {
	if toks := Tokenize(s); len(toks) == 1 {
		return toks[0]
	}
	return strings.ToLower(s)
}

// TagCount returns the number of nodes with the given tag.
func (ix *Index) TagCount(tag doc.TagID) int {
	if tag < 0 || int(tag) >= len(ix.streams) {
		return 0
	}
	return len(ix.streams[tag])
}

// Nodes returns the document-order node list for tag.  The slice is
// shared; callers must not modify it.
func (ix *Index) Nodes(tag doc.TagID) []doc.NodeID {
	if tag < 0 || int(tag) >= len(ix.streams) {
		return nil
	}
	return ix.streams[tag]
}

// TokenPostings returns the nodes whose value contains token, in document
// order.  The token is canonicalized with the same fold indexing applies.
func (ix *Index) TokenPostings(token string) []doc.NodeID {
	return ix.postings[foldToken(token)]
}

// ExactMatches returns the nodes whose whole value equals v
// case-insensitively, in document order.
func (ix *Index) ExactMatches(v string) []doc.NodeID {
	return ix.exact[foldValue(v)]
}

// DF returns the document frequency of token: the number of nodes whose
// value contains it.  It folds exactly like TokenPostings, so
// DF(t) == len(TokenPostings(t)) for every t.
func (ix *Index) DF(token string) int {
	return len(ix.postings[foldToken(token)])
}

// ValuedNodes returns the number of nodes carrying a non-empty value.
func (ix *Index) ValuedNodes() int { return ix.valued }

// TagTrie returns the completion trie over lowercased tag names, each
// weighted by its node count, with its TagID as datum.  Tags whose names
// differ only in case are one entry: the sum of their counts, with the
// lowest of their TagIDs.
func (ix *Index) TagTrie() *trie.Trie { return ix.tagTrie }

// ValueTrie returns the completion trie over the values of nodes tagged tag,
// or nil when no such node has a value.
func (ix *Index) ValueTrie(tag doc.TagID) *trie.Trie { return ix.valueTries[tag] }

// ContainsAll returns the nodes whose value contains every token of the
// query string, in document order, computed by intersecting token postings
// smallest-first.
func (ix *Index) ContainsAll(query string) []doc.NodeID {
	toks := Tokenize(query)
	if len(toks) == 0 {
		return nil
	}
	lists := make([][]doc.NodeID, len(toks))
	for i, tok := range toks {
		lists[i] = ix.postings[tok]
		if len(lists[i]) == 0 {
			return nil
		}
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	cur := lists[0]
	for _, next := range lists[1:] {
		cur = intersect(cur, next)
		if len(cur) == 0 {
			return nil
		}
	}
	return cur
}

// gallopSkew is the length ratio beyond which intersect switches from the
// linear merge to galloping: under it the merge's cache-friendly scan wins,
// over it the O(small · log big) search does.
const gallopSkew = 8

// intersect intersects two sorted node lists, choosing linear merge for
// similar lengths and galloping search for skewed ones (the common shape of
// ContainsAll with one rare and one common token).
func intersect(a, b []doc.NodeID) []doc.NodeID {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopSkew*len(a) {
		return intersectGallop(a, b)
	}
	return intersectLinear(a, b)
}

// intersectLinear merges two sorted node lists of comparable length.
func intersectLinear(a, b []doc.NodeID) []doc.NodeID {
	var out []doc.NodeID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// intersectGallop intersects a short sorted list against a much longer one:
// for each element of small, gallop (exponential search) forward through
// big to bracket a window containing the first element >= x, then binary
// search inside it.  Total cost O(|small| · log |big|) instead of
// O(|small| + |big|).
func intersectGallop(small, big []doc.NodeID) []doc.NodeID {
	var out []doc.NodeID
	base := 0
	for _, x := range small {
		step := 1
		for base+step < len(big) && big[base+step] < x {
			step <<= 1
		}
		lo, hi := base+step>>1, base+step
		if hi > len(big) {
			hi = len(big)
		}
		i := lo + sort.Search(hi-lo, func(k int) bool { return big[lo+k] >= x })
		if i >= len(big) {
			break
		}
		if big[i] == x {
			out = append(out, x)
		}
		base = i
	}
	return out
}

// Approximate per-entry overheads of the resident-byte accounting: a Go map
// entry (bucket share + key header), a slice header and a node ID.
const (
	mapEntryBytes    = 48
	sliceHeaderBytes = 24
	nodeIDBytes      = 4
)

// ResidentBytes measures the index's live per-node substrate: the tag
// streams, token postings, exact-value lists and the cached wildcard
// stream.  The document and the tries are not counted.
func (ix *Index) ResidentBytes() int64 {
	var b int64
	for _, s := range ix.streams {
		b += sliceHeaderBytes + int64(len(s))*nodeIDBytes
	}
	for tok, nodes := range ix.postings {
		b += int64(len(tok)) + mapEntryBytes + int64(len(nodes))*nodeIDBytes
	}
	for v, nodes := range ix.exact {
		b += int64(len(v)) + mapEntryBytes + int64(len(nodes))*nodeIDBytes
	}
	b += int64(len(ix.allElems)) * nodeIDBytes
	return b
}
