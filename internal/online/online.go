// Package online prototypes the paper's future-work direction (Section 9):
// an online labeling scheme that labels module executions as soon as they
// happen, so provenance queries can run on intermediate data while the
// workflow is still executing.
//
// The static scheme's dense preorder positions would shift globally on
// every new fork copy or loop iteration. Instead, this package maintains
// the three total orders as doubly-linked lists with sparse 64-bit keys:
// a new copy's plan node is inserted at the right place in each list and
// assigned the midpoint key of its neighbors. When a local gap is
// exhausted, keys are redistributed in an exponentially expanding
// neighborhood (counted via Renumbers, amortized cheap). Reachability
// queries evaluate Algorithm 3 on the live keys.
//
// # Slabs
//
// The labeler keeps its state in columns it owns, so starting a copy or
// recording an execution allocates nothing beyond their amortized
// growth. The three lists share one column of elements, each a key and
// the int32 positions of its neighbors. Copies are cut from chunks the
// labeler allocates, so a *Copy handle stays valid while the chunks
// grow. A copy's sites (one per child of its hierarchy node, where that
// child's copies start) are a run of a site column, found by the child's
// position among its siblings (spec.Hierarchy.Index); a site links its
// copies in serial order through each copy's next field.
package online

import (
	"fmt"
	"slices"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/spec"
)

// Copy is a handle to one live fork or loop copy (a + node of the growing
// execution plan). The root copy represents the run itself.
type Copy struct {
	hnode  int
	parent *Copy // nil for root
	// site is the site this copy belongs to (-1 for root); sites is
	// where this copy's own sites start in the labeler's site column.
	site, sites int32
	// next is the copy after this one in its site's serial order.
	next *Copy
	// elems are this copy's positions in the three order lists; end
	// caches the last element of this copy's subtree block per order.
	elems, end [3]int32
}

// HNode returns the hierarchy node this copy instantiates.
func (c *Copy) HNode() int { return c.hnode }

// site is where the copies of one hierarchy node start inside one
// parent copy.
type site struct {
	kind spec.Kind
	// last is the copy at the end of the serial order, nil before the
	// first copy starts.
	last *Copy
	// first caches the earliest element of the site's block per order.
	first [3]int32
}

// elem is a node of one order list: its key and the positions of its
// neighbors in the labeler's element column.
type elem struct {
	key        uint64
	prev, next int32
}

// Copy chunks start at minCopyChunk copies and double up to
// maxCopyChunk, so a short stream allocates little and a long one
// allocates rarely.
const (
	minCopyChunk = 8
	maxCopyChunk = 1024
)

// Labeler grows a labeled run incrementally.
type Labeler struct {
	s        *spec.Spec
	skeleton label.Labeling
	root     *Copy
	// elems holds all three order lists; elements 2*ord and 2*ord+1 are
	// order ord's head and tail sentinels.
	elems []elem
	sites []site
	// chunk is the chunk new copies are cut from.
	chunk     []Copy
	renumbers int
	contexts  []*Copy
	origins   []dag.VertexID
}

// New starts an empty run for the specification. The root copy exists
// immediately; module executions and fork/loop copies are reported as the
// run progresses.
func New(s *spec.Spec, skeleton label.Labeling) *Labeler {
	l := &Labeler{s: s, skeleton: skeleton, elems: make([]elem, 6, 16)}
	for ord := int32(0); ord < 3; ord++ {
		h, t := 2*ord, 2*ord+1
		l.elems[h] = elem{key: 0, prev: -1, next: t}
		l.elems[t] = elem{key: ^uint64(0), prev: h, next: -1}
	}
	root := l.newCopy(0, nil, -1)
	for ord := int32(0); ord < 3; ord++ {
		e := l.insertAfter(ord, 2*ord)
		root.elems[ord] = e
		root.end[ord] = e
	}
	l.root = root
	return l
}

// Root returns the run's root copy.
func (l *Labeler) Root() *Copy { return l.root }

// Renumbers reports how many local key redistributions have occurred.
func (l *Labeler) Renumbers() int { return l.renumbers }

// NumVertices returns the number of module executions recorded.
func (l *Labeler) NumVertices() int { return len(l.origins) }

// Grow makes room for copies more copies and execs more module
// executions, so a caller that knows a batch's counts (an event log
// checked before it is applied) grows each column once.
func (l *Labeler) Grow(copies, execs int) {
	l.contexts = slices.Grow(l.contexts, execs)
	l.origins = slices.Grow(l.origins, execs)
	l.elems = slices.Grow(l.elems, 3*copies)
	if cap(l.chunk)-len(l.chunk) < copies {
		l.chunk = make([]Copy, 0, max(copies, min(2*cap(l.chunk), maxCopyChunk)))
	}
}

// newCopy cuts a copy of hierarchy node hnode, belonging to site in of
// the parent copy, from the current chunk, with a site for each child of
// hnode.
func (l *Labeler) newCopy(hnode int, parent *Copy, in int32) *Copy {
	if len(l.chunk) == cap(l.chunk) {
		l.chunk = make([]Copy, 0, min(max(2*cap(l.chunk), minCopyChunk), maxCopyChunk))
	}
	l.chunk = l.chunk[:len(l.chunk)+1]
	c := &l.chunk[len(l.chunk)-1]
	*c = Copy{hnode: hnode, parent: parent, site: in, sites: int32(len(l.sites))}
	for _, child := range l.s.Hier.Children[hnode] {
		l.sites = append(l.sites, site{kind: l.s.KindOf(child)})
	}
	return c
}

// StartCopy begins a new copy of hierarchy node hnode within the parent
// copy: the next parallel copy for forks, or the iteration appended at the
// end of the chain for loops.
func (l *Labeler) StartCopy(parent *Copy, hnode int) (*Copy, error) {
	if err := CheckChild(l.s, parent.hnode, hnode); err != nil {
		return nil, err
	}
	st := parent.sites + int32(l.s.Hier.Index[hnode])
	return l.insertCopy(parent, st, hnode, l.sites[st].last), nil
}

// CheckChild reports whether a copy of hierarchy node hnode may start
// inside a copy of hierarchy node parent: hnode must be parent's child.
// StartCopy and events.Applier.Check both make the check through it.
func CheckChild(s *spec.Spec, parent, hnode int) error {
	if hnode < 1 || hnode >= s.Hier.NumNodes() || s.Hier.Parent[hnode] != parent {
		return fmt.Errorf("online: hierarchy node %d is not a child of %d", hnode, parent)
	}
	return nil
}

// CheckExec reports whether module origin may execute inside a copy of
// hierarchy node hnode: origin must be a module of the specification,
// and of hnode's subgraph unless hnode is the root. AddExec and
// events.Applier.Check both make the check through it.
func CheckExec(s *spec.Spec, hnode int, origin dag.VertexID) error {
	if origin < 0 || int(origin) >= s.NumVertices() {
		return fmt.Errorf("online: invalid origin %d", origin)
	}
	if hnode != 0 {
		sub := s.SubgraphOf(hnode)
		if !sub.HasVertex(origin) {
			return fmt.Errorf("online: module %q is not in subgraph %q..%q",
				s.NameOf(origin), s.NameOf(sub.Source), s.NameOf(sub.Sink))
		}
	}
	return nil
}

// StartLoopIterationAfter begins a loop iteration inserted immediately
// after the given copy in its serial chain (re-execution of an
// intermediate iteration). prev must be a loop copy.
func (l *Labeler) StartLoopIterationAfter(prev *Copy) (*Copy, error) {
	if prev.site < 0 || l.sites[prev.site].kind != spec.Loop {
		return nil, fmt.Errorf("online: copy is not a loop iteration")
	}
	return l.insertCopy(prev.parent, prev.site, prev.hnode, prev), nil
}

// insertCopy creates a copy of hierarchy node hnode in site st of the
// parent copy, serially right after pred (nil when the site has no copy
// yet), and places its element in all three order lists, maintaining
// the block caches.
func (l *Labeler) insertCopy(parent *Copy, st int32, hnode int, pred *Copy) *Copy {
	c := l.newCopy(hnode, parent, st)
	s := &l.sites[st]
	for ord := int32(0); ord < 3; ord++ {
		var after int32
		atFront := false
		switch {
		case pred == nil:
			// First copy: the site block opens at the end of the parent
			// copy's subtree block (site order is creation order in every
			// traversal, keeping unordered children consistent across the
			// three orders).
			after = parent.end[ord]
		case !reversedAt(s.kind, ord):
			after = pred.end[ord]
		case pred == s.last:
			// The highest serial index is visited first in reverse: the
			// element opens the site block.
			after = l.elems[s.first[ord]].prev
			atFront = true
		default:
			// Visited immediately after pred's serial successor.
			after = pred.next.end[ord]
		}
		e := l.insertAfter(ord, after)
		c.elems[ord] = e
		c.end[ord] = e
		if pred == nil || atFront {
			s.first[ord] = e
		}
		// Extend ancestor subtree-end caches when the insertion happened
		// at a block boundary.
		for a := parent; a != nil; a = a.parent {
			if a.end[ord] != after {
				break
			}
			a.end[ord] = e
		}
	}
	if pred == nil {
		s.last = c
	} else {
		c.next, pred.next = pred.next, c
		if s.last == pred {
			s.last = c
		}
	}
	return c
}

// reversedAt reports whether order ord visits the children of a − node of
// the given kind in reverse (Algorithm 1: O2 reverses forks, O3 loops).
func reversedAt(kind spec.Kind, ord int32) bool {
	return (ord == 1 && kind == spec.Fork) || (ord == 2 && kind == spec.Loop)
}

// insertAfter places a new element after prev in order ord, assigning the
// midpoint key; when the local gap is exhausted it redistributes keys in
// an exponentially expanding neighborhood (Bender-style local relabeling),
// keeping hot-spot inserts amortized polylogarithmic instead of paying a
// global renumbering.
func (l *Labeler) insertAfter(ord, prev int32) int32 {
	next := l.elems[prev].next
	e := int32(len(l.elems))
	l.elems = append(l.elems, elem{prev: prev, next: next})
	l.elems[prev].next = e
	l.elems[next].prev = e
	if lo, hi := l.elems[prev].key, l.elems[next].key; hi-lo < 2 {
		l.redistribute(ord, e)
	} else {
		l.elems[e].key = lo + (hi-lo)/2
	}
	return e
}

// redistribute reassigns keys in a window around e wide enough to give
// every window element at least minSpacing of slack.
func (l *Labeler) redistribute(ord, e int32) {
	l.renumbers++
	const minSpacing = 1 << 12
	els := l.elems
	head, tail := 2*ord, 2*ord+1
	lo, hi := els[e].prev, els[e].next
	count := 1 // elements strictly between lo and hi
	step := 8
	for {
		for i := 0; i < step && lo != head; i++ {
			lo = els[lo].prev
			count++
		}
		for i := 0; i < step && hi != tail; i++ {
			hi = els[hi].next
			count++
		}
		span := els[hi].key - els[lo].key
		if span/uint64(count+1) >= minSpacing || (lo == head && hi == tail) {
			break
		}
		step *= 2
	}
	spacing := (els[hi].key - els[lo].key) / uint64(count+1)
	if spacing < 2 {
		spacing = 2 // unreachable with 64-bit keys, kept as a safety net
	}
	key := els[lo].key
	for x := els[lo].next; x != hi; x = els[x].next {
		key += spacing
		els[x].key = key
	}
}

// AddExec records one module execution with the given specification
// origin, belonging to the given copy (its context: the deepest fork or
// loop copy dominating it). It returns the new run vertex's ID.
func (l *Labeler) AddExec(c *Copy, origin dag.VertexID) (dag.VertexID, error) {
	if err := CheckExec(l.s, c.hnode, origin); err != nil {
		return 0, err
	}
	v := dag.VertexID(len(l.origins))
	l.contexts = append(l.contexts, c)
	l.origins = append(l.origins, origin)
	return v, nil
}

// Label is an online reachability label: three sparse order keys plus the
// origin reference. Labels are snapshots — a key redistribution (rare,
// counted) can invalidate previously exported snapshots, which is
// precisely the tension the paper's future-work section calls out for
// dynamic schemes. Live queries through the Labeler always use current
// keys.
type Label struct {
	K1, K2, K3 uint64
	Orig       dag.VertexID
}

// CurrentLabel exports the current label of run vertex v.
func (l *Labeler) CurrentLabel(v dag.VertexID) Label {
	c := l.contexts[v]
	return Label{
		K1:   l.elems[c.elems[0]].key,
		K2:   l.elems[c.elems[1]].key,
		K3:   l.elems[c.elems[2]].key,
		Orig: l.origins[v],
	}
}

// Reachable reports whether run vertex v is reachable from run vertex u,
// using the live keys.
func (l *Labeler) Reachable(u, v dag.VertexID) bool {
	return l.ReachableLabels(l.CurrentLabel(u), l.CurrentLabel(v))
}

// ReachableLabels evaluates Algorithm 3's predicate on two label
// snapshots taken under the same numbering epoch: Lemma 4.5 on the keys
// (order.Context, the offline labels' rule), and the skeleton query on
// the origins when the keys do not decide.
func (l *Labeler) ReachableLabels(a, b Label) bool {
	if reach, decided := order.Context(a.K1, a.K2, a.K3, b.K1, b.K2, b.K3); decided {
		return reach
	}
	return l.skeleton.Reachable(a.Orig, b.Orig)
}
