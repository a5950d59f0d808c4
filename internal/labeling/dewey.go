package labeling

import "slices"

// Dewey is a Dewey order code: the sequence of zero-based child ordinals on
// the path from the root to a node.  The root's Dewey label is the empty
// slice.  Dewey labels sort lexicographically in document order, with a
// prefix ordering before any extension (ancestors precede descendants).
type Dewey []int32

// Compare orders two Dewey labels in document order: -1 if a precedes b,
// 0 if equal, +1 if a follows b.  A proper prefix precedes its extensions.
func (a Dewey) Compare(b Dewey) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// IsAncestor reports whether a is a proper ancestor of d, i.e. a is a proper
// prefix of d.
func (a Dewey) IsAncestor(d Dewey) bool {
	if len(a) >= len(d) {
		return false
	}
	for i := range a {
		if a[i] != d[i] {
			return false
		}
	}
	return true
}

// LCA returns the lowest common ancestor of a and b as the longest common
// prefix.  The result aliases a's backing array.
func (a Dewey) LCA(b Dewey) Dewey {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return a[:i]
}

// Level returns the node's depth (the root is level 0).
func (a Dewey) Level() int { return len(a) }

// DeweyArena stores the Dewey labels of a whole document in two flat slices,
// avoiding one allocation per node.  Labels are appended in document order.
type DeweyArena struct {
	offs   []int32 // offs[i] is the start of node i's digits; len(offs) == n+1
	digits []int32
}

// NewDeweyArena returns an arena with capacity hints for n nodes of average
// depth d.
func NewDeweyArena(n, d int) *DeweyArena {
	a := &DeweyArena{
		offs:   make([]int32, 1, n+1),
		digits: make([]int32, 0, n*d),
	}
	return a
}

// Append stores the label of the next node and returns its index.
func (a *DeweyArena) Append(label Dewey) int32 {
	a.digits = append(a.digits, label...)
	a.offs = append(a.offs, int32(len(a.digits)))
	return int32(len(a.offs) - 2)
}

// Grow reserves room for n more labels of digits digits in all, so that
// many appends allocate nothing.
func (a *DeweyArena) Grow(n, digits int) {
	a.offs = slices.Grow(a.offs, n)
	a.digits = slices.Grow(a.digits, digits)
}

// Digits returns the number of digits stored over all labels.
func (a *DeweyArena) Digits() int { return len(a.digits) }

// Fit releases capacity that NewDeweyArena's hints reserved well beyond the
// labels appended (a text-heavy document has far fewer nodes than its size
// suggests); slack within what append growth leaves anyway stays.
func (a *DeweyArena) Fit() {
	if cap(a.offs)-len(a.offs) > len(a.offs)/4 {
		a.offs = append(make([]int32, 0, len(a.offs)), a.offs...)
	}
	if cap(a.digits)-len(a.digits) > len(a.digits)/4 {
		a.digits = append(make([]int32, 0, len(a.digits)), a.digits...)
	}
}

// At returns the label of node i.  The result aliases the arena; callers
// must not modify it.
func (a *DeweyArena) At(i int32) Dewey {
	return Dewey(a.digits[a.offs[i]:a.offs[i+1]])
}

// Len returns the number of stored labels.
func (a *DeweyArena) Len() int { return len(a.offs) - 1 }

// DeweyAssigner hands out Dewey labels during a document-order traversal,
// mirroring Assigner for containment labels.
type DeweyAssigner struct {
	path []int32 // current label; path[i] is the ordinal at depth i
	next []int32 // next child ordinal to assign at each open depth
}

// NewDeweyAssigner returns an assigner positioned before the root.
func NewDeweyAssigner() *DeweyAssigner {
	return &DeweyAssigner{next: []int32{0}}
}

// Enter opens the next child at the current depth and returns its label.
// The returned slice is only valid until the next Enter/Leave; callers that
// retain it must copy (DeweyArena.Append copies).
func (s *DeweyAssigner) Enter() Dewey {
	d := len(s.path)
	ord := s.next[d]
	s.next[d]++
	s.path = append(s.path, ord)
	s.next = append(s.next, 0)
	return Dewey(s.path)
}

// Leave closes the current element.
func (s *DeweyAssigner) Leave() {
	if len(s.path) == 0 {
		panic("labeling: DeweyAssigner.Leave without matching Enter")
	}
	s.path = s.path[:len(s.path)-1]
	s.next = s.next[:len(s.next)-1]
}
