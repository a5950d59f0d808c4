package trie

import (
	"slices"
	"unicode/utf8"
)

// FuzzyComplete returns words whose prefix is within edit distance maxDist
// of the query prefix, at most k: nearest first, then heaviest, then
// lexicographically.  It powers LotusX's tolerance to typos while the user
// grows a query node: "athor" still suggests "author".
//
// It is the classic trie × dynamic-programming-row search, run over the
// implicit trie: the sorted words are visited in order, each extending the
// Levenshtein rows of the word before it past their common prefix, and a
// prefix whose distance is settled, or out of budget, skips its whole range
// of words by binary search.
func (t *Trie) FuzzyComplete(prefix string, maxDist, k int) []Entry {
	if k <= 0 {
		return nil
	}
	if maxDist <= 0 {
		return t.Complete(prefix, k)
	}
	q := []rune(prefix)
	m := len(q) + 1
	type hit struct {
		i    int32
		dist int
	}
	var hits []hit
	emit := func(lo, hi, dist int) {
		for _, i := range t.top(lo, hi, k) {
			hits = append(hits, hit{i, dist})
		}
	}

	// The prefix edit distance of a word w is the minimum over w's prefixes
	// p of levenshtein(q, p): at each trie node it is the minimum of the
	// last row entry along the path so far ("best").  Row minima never fall
	// as a path extends, so once a row's minimum reaches best, every word
	// below has distance best, and once it passes maxDist none is in budget.
	//
	// rows holds one row per rune of path, the word last descended, row d
	// against its first d runes; best[d] and ends[d], the byte length of
	// those runes, go with it.
	rows := make([]int, m)
	for i := range rows {
		rows[i] = i
	}
	best, ends := []int{len(q)}, []int{0}
	path := ""
	n := len(t.entries)
	switch {
	case len(q) == 0:
		emit(0, n, 0)
		n = 0
	case n > 0 && t.entries[0].Word == "" && len(q) <= maxDist:
		hits = append(hits, hit{0, len(q)})
	}
	for i := 0; i < n; {
		w := t.entries[i].Word
		lcp := commonPrefix(path, w)
		for ends[len(ends)-1] > lcp {
			best, ends = best[:len(best)-1], ends[:len(ends)-1]
			rows = rows[:len(rows)-m]
		}
		path = w
		next := i + 1
		for off := ends[len(ends)-1]; off < len(w); {
			r, size := utf8.DecodeRuneInString(w[off:])
			off += size
			d := len(rows)
			rows = slices.Grow(rows, m)[:d+m]
			prev, cur := rows[d-m:d], rows[d:]
			cur[0] = prev[0] + 1
			low := cur[0]
			for j := 1; j < m; j++ {
				cost := 1
				if q[j-1] == r {
					cost = 0
				}
				cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
				low = min(low, cur[j])
			}
			b := min(best[len(best)-1], cur[m-1])
			best, ends = append(best, b), append(ends, off)
			if b == 0 || low >= b || low > maxDist {
				_, end := t.below(w[:off])
				if b <= maxDist {
					emit(i, end, b)
				}
				next = end
				break
			}
			if off == len(w) && b <= maxDist {
				hits = append(hits, hit{int32(i), b})
			}
		}
		i = next
	}

	slices.SortFunc(hits, func(a, b hit) int {
		switch {
		case a.dist != b.dist:
			return a.dist - b.dist
		case a.i == b.i:
			return 0
		case t.heavier(a.i, b.i) == a.i:
			return -1
		}
		return 1
	})
	idx := make([]int32, min(k, len(hits)))
	for j := range idx {
		idx[j] = hits[j].i
	}
	return t.entriesAt(idx)
}
