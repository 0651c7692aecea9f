package online

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/spec"
)

// This file keeps the pointer-based labeler that predates the slab
// labeler in online.go, unchanged except for its names, as the
// reference FuzzOnlineOracle holds the Labeler to: every copy a heap
// object with a map of its sites, every order-list element a heap node.

// refCopy is a handle to one live fork or loop copy (a + node of the growing
// execution plan). The root copy represents the run itself.
type refCopy struct {
	hnode  int
	parent *refCopy // nil for root
	minus  *refSite // the site this copy belongs to; nil for root
	sites  map[int]*refSite
	// elems are this copy's positions in the three order lists; end
	// caches the last element of this copy's subtree block per order.
	elems [3]*refElem
	end   [3]*refElem
}

// HNode returns the hierarchy node this copy instantiates.
func (c *refCopy) HNode() int { return c.hnode }

type refSite struct {
	hnode  int
	parent *refCopy
	kind   spec.Kind
	copies []*refCopy
	// first caches the earliest element of the site's block per order.
	first [3]*refElem
}

// refElem is a node of one order list.
type refElem struct {
	key        uint64
	prev, next *refElem
}

// refLabeler grows a labeled run incrementally.
type refLabeler struct {
	s            *spec.Spec
	skeleton     label.Labeling
	root         *refCopy
	heads, tails [3]*refElem
	renumbers    int
	numVertices  int
	contexts     []*refCopy
	origins      []dag.VertexID
}

// New starts an empty run for the specification. The root copy exists
// immediately; module executions and fork/loop copies are reported as the
// run progresses.
func newRef(s *spec.Spec, skeleton label.Labeling) *refLabeler {
	l := &refLabeler{s: s, skeleton: skeleton}
	for i := 0; i < 3; i++ {
		h := &refElem{key: 0}
		t := &refElem{key: ^uint64(0)}
		h.next, t.prev = t, h
		l.heads[i], l.tails[i] = h, t
	}
	root := &refCopy{hnode: 0, sites: make(map[int]*refSite)}
	for i := 0; i < 3; i++ {
		e := l.insertAfter(i, l.heads[i])
		root.elems[i] = e
		root.end[i] = e
	}
	l.root = root
	return l
}

// Root returns the run's root copy.
func (l *refLabeler) Root() *refCopy { return l.root }

// Renumbers reports how many local key redistributions have occurred.
func (l *refLabeler) Renumbers() int { return l.renumbers }

// NumVertices returns the number of module executions recorded.
func (l *refLabeler) NumVertices() int { return l.numVertices }

// StartCopy begins a new copy of hierarchy node hnode within the parent
// copy: the next parallel copy for forks, or the iteration appended at the
// end of the chain for loops. The site is created on first use.
func (l *refLabeler) StartCopy(parent *refCopy, hnode int) (*refCopy, error) {
	if err := CheckChild(l.s, parent.hnode, hnode); err != nil {
		return nil, err
	}
	st := parent.sites[hnode]
	if st == nil {
		st = &refSite{hnode: hnode, parent: parent, kind: l.s.KindOf(hnode)}
		parent.sites[hnode] = st
	}
	return l.insertCopy(st, len(st.copies)), nil
}

// intermediate iteration). prev must be a loop copy.
func (l *refLabeler) StartLoopIterationAfter(prev *refCopy) (*refCopy, error) {
	if prev.minus == nil || prev.minus.kind != spec.Loop {
		return nil, fmt.Errorf("online: copy is not a loop iteration")
	}
	st := prev.minus
	for i, c := range st.copies {
		if c == prev {
			return l.insertCopy(st, i+1), nil
		}
	}
	return nil, fmt.Errorf("online: copy not found in its site")
}

// insertCopy creates the copy at serial index idx of the site and places
// its element in all three order lists, maintaining the block caches.
func (l *refLabeler) insertCopy(st *refSite, idx int) *refCopy {
	c := &refCopy{hnode: st.hnode, parent: st.parent, minus: st, sites: make(map[int]*refSite)}
	for ord := 0; ord < 3; ord++ {
		reversed := l.reversedAt(st.kind, ord)
		var after *refElem
		atFront := false
		switch {
		case len(st.copies) == 0:
			// First copy: the site block opens at the end of the parent
			// copy's subtree block (site order is creation order in every
			// traversal, keeping unordered children consistent across the
			// three orders).
			after = st.parent.end[ord]
		case reversed:
			if idx == len(st.copies) {
				// Highest logical index is visited first in reverse: the
				// element opens the site block.
				after = st.first[ord].prev
				atFront = true
			} else {
				// Visited immediately after the copy at logical index idx.
				after = st.copies[idx].end[ord]
			}
		default:
			if idx == 0 {
				after = st.first[ord].prev
				atFront = true
			} else {
				after = st.copies[idx-1].end[ord]
			}
		}
		e := l.insertAfter(ord, after)
		c.elems[ord] = e
		c.end[ord] = e
		if len(st.copies) == 0 || atFront {
			st.first[ord] = e
		}
		// Extend ancestor subtree-end caches when the insertion happened
		// at a block boundary.
		for a := st.parent; a != nil; a = a.parent {
			if a.end[ord] != after {
				break
			}
			a.end[ord] = e
		}
	}
	if idx == len(st.copies) {
		st.copies = append(st.copies, c) // O(1) amortized for the hot append path
	} else {
		st.copies = append(st.copies, nil)
		copy(st.copies[idx+1:], st.copies[idx:])
		st.copies[idx] = c
	}
	return c
}

// reversedAt reports whether order ord visits the children of a − node of
// the given kind in reverse (Algorithm 1: O2 reverses forks, O3 loops).
func (l *refLabeler) reversedAt(kind spec.Kind, ord int) bool {
	return (ord == 1 && kind == spec.Fork) || (ord == 2 && kind == spec.Loop)
}

// insertAfter places a new element after prev in order ord, assigning the
// midpoint key; when the local gap is exhausted it redistributes keys in
// an exponentially expanding neighborhood (Bender-style local relabeling),
// keeping hot-spot inserts amortized polylogarithmic instead of paying a
// global renumbering.
func (l *refLabeler) insertAfter(ord int, prev *refElem) *refElem {
	next := prev.next
	e := &refElem{prev: prev, next: next}
	prev.next = e
	next.prev = e
	if next.key-prev.key < 2 {
		l.redistribute(ord, e)
	} else {
		e.key = prev.key + (next.key-prev.key)/2
	}
	return e
}

// redistribute reassigns keys in a window around e wide enough to give
// every window element at least minSpacing of slack.
func (l *refLabeler) redistribute(ord int, e *refElem) {
	l.renumbers++
	const minSpacing = 1 << 12
	head, tail := l.heads[ord], l.tails[ord]
	lo, hi := e.prev, e.next
	count := 1 // elements strictly between lo and hi
	step := 8
	for {
		for i := 0; i < step && lo != head; i++ {
			lo = lo.prev
			count++
		}
		for i := 0; i < step && hi != tail; i++ {
			hi = hi.next
			count++
		}
		span := hi.key - lo.key
		if span/uint64(count+1) >= minSpacing || (lo == head && hi == tail) {
			break
		}
		step *= 2
	}
	spacing := (hi.key - lo.key) / uint64(count+1)
	if spacing < 2 {
		spacing = 2 // unreachable with 64-bit keys, kept as a safety net
	}
	key := lo.key
	for x := lo.next; x != hi; x = x.next {
		key += spacing
		x.key = key
	}
}

// AddExec records one module execution with the given specification
// origin, belonging to the given copy (its context: the deepest fork or
// loop copy dominating it). It returns the new run vertex's ID.
func (l *refLabeler) AddExec(c *refCopy, origin dag.VertexID) (dag.VertexID, error) {
	if err := CheckExec(l.s, c.hnode, origin); err != nil {
		return 0, err
	}
	v := dag.VertexID(l.numVertices)
	l.numVertices++
	l.contexts = append(l.contexts, c)
	l.origins = append(l.origins, origin)
	return v, nil
}

// CurrentLabel exports the current label of run vertex v.
func (l *refLabeler) CurrentLabel(v dag.VertexID) Label {
	c := l.contexts[v]
	return Label{
		K1:   c.elems[0].key,
		K2:   c.elems[1].key,
		K3:   c.elems[2].key,
		Orig: l.origins[v],
	}
}

// Reachable reports whether run vertex v is reachable from run vertex u,
// using the live keys.
func (l *refLabeler) Reachable(u, v dag.VertexID) bool {
	return l.ReachableLabels(l.CurrentLabel(u), l.CurrentLabel(v))
}

// ReachableLabels evaluates Algorithm 3's predicate on two label
// snapshots taken under the same numbering epoch.
func (l *refLabeler) ReachableLabels(a, b Label) bool {
	lt2 := a.K2 < b.K2
	lt3 := a.K3 < b.K3
	if lt2 != lt3 {
		return a.K1 < b.K1 && a.K3 > b.K3
	}
	return l.skeleton.Reachable(a.Orig, b.Orig)
}
