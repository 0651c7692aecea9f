package core

import (
	"slices"
	"sync"

	"repro/internal/dag"
	"repro/internal/order"
)

// maxConeMemo bounds the per-query skeleton memo (one byte per spec
// vertex) when the snapshot header declares more spec vertices than the
// run has vertices; beyond it, AppendCone probes the skeleton directly.
const maxConeMemo = 1 << 16

// Cone verdicts. A context is in the cone, out of it, or left to the
// skeleton query on each member's origin (askSkeleton); an origin's
// memo entry is askSkeleton until the skeleton has been probed for it.
// Only inCone has bit 0 set (v&inCone is 1 exactly when v is inCone).
const (
	askSkeleton uint8 = iota
	inCone
	outOfCone
)

// coneScratch is one AppendCone call's scratch: a verdict per context
// and the skeleton memo per origin. The memo is all askSkeleton in the
// pool; a call that panics (a skeleton given an origin it does not
// know) drops its scratch instead of returning it dirty.
type coneScratch struct {
	verdict []uint8
	memo    []uint8
}

var coneScratchPool = sync.Pool{New: func() any { return new(coneScratch) }}

// AppendCone appends v's lineage cone to dst in ascending vertex ID and
// returns the extended slice: every other vertex that reaches v when up
// is true (the upstream cone), every vertex v reaches otherwise. The
// cone equals a scan of ReachableLabels over all n vertices.
//
// Algorithm 3's predicate πr splits in two. Its context test reads only
// (Q1, Q2, Q3), which every vertex of one plan context shares, so when
// Lemma 4.5 (order.Context) decides, one comparison against a
// context's row decides all its vertices. Otherwise the answer is the
// skeleton query on the origins, and a per-query memo over spec
// vertices makes that at most one skeleton.Reachable per origin rather
// than per vertex. So AppendCone first decides each context once, then
// walks the snapshot's context spans in vertex order: a span whose
// context is out of the cone is skipped whole, one in the cone is
// appended as a range, and only the vertices of undecided spans go
// through the skeleton memo. That costs
// O(n⁺_T + spans + vertices in undecided spans + |cone|). When
// contexts interleave in vertex order, spans are too short to pay for
// their index, the snapshot keeps none (see minSpanLen), and AppendCone
// scans the context column vertex by vertex: O(n⁺_T + n).
func (l *Labeling) AppendCone(dst []dag.VertexID, v dag.VertexID, up bool) []dag.VertexID {
	w := coneWalk{l: l, s: l.Label(v), v: v, up: up}
	sc := coneScratchPool.Get().(*coneScratch)
	contexts := len(l.snap.ord) / 2
	if cap(sc.verdict) < contexts {
		sc.verdict = make([]uint8, contexts)
	}
	w.verdict = sc.verdict[:contexts]
	if numSpec := l.snap.NumSpec; numSpec <= max(l.NumVertices(), maxConeMemo) {
		if cap(sc.memo) < numSpec {
			sc.memo = make([]uint8, numSpec)
		}
		w.memo = sc.memo[:numSpec]
	}
	for q := range w.verdict {
		from, to := Label{Q1: uint32(q), Q2: l.snap.ord[2*q], Q3: l.snap.ord[2*q+1]}, w.s
		if !up {
			from, to = w.s, from
		}
		w.verdict[q] = askSkeleton
		if reach, decided := order.Context(from.Q1, from.Q2, from.Q3, to.Q1, to.Q2, to.Q3); decided {
			w.verdict[q] = outOfCone
			if reach {
				w.verdict[q] = inCone
			}
		}
	}
	// dst is grown once, to hold every vertex, so nothing below checks
	// its capacity.
	q1, spans := l.snap.q1, l.snap.spans
	dst = slices.Grow(dst, len(q1))
	k, out := len(dst), dst[:len(dst)+len(q1)]
	if spans == nil {
		k = w.scan(out, k, 0, dag.VertexID(len(q1)))
	}
	for i := 1; i < len(spans); i++ {
		lo, hi := dag.VertexID(spans[i-1]), dag.VertexID(spans[i])
		switch w.verdict[q1[lo]] {
		case inCone:
			// v's own context has v's row (equal places), which the
			// context test never decides, so v is in no such span.
			for u := lo; u < hi; u++ {
				out[k] = u
				k++
			}
		case askSkeleton:
			k = w.scan(out, k, lo, hi)
		}
	}
	clear(w.memo)
	coneScratchPool.Put(sc)
	return out[:k]
}

// coneWalk is one AppendCone call: the source v and its label s, the
// direction, and the call's scratch.
type coneWalk struct {
	l       *Labeling
	s       Label
	v       dag.VertexID
	up      bool
	verdict []uint8 // per context
	memo    []uint8 // per origin, when the memo covers the spec
}

// scan decides vertices lo to hi-1 one by one, each by its context's
// verdict or else by its origin's, and writes those in the cone, other
// than v, to out from index k; it returns the index after the last.
// Every vertex is written and kept only when it is in the cone
// (r&inCone), so verdicts that vary from vertex to vertex cost no
// branch.
func (w *coneWalk) scan(out []dag.VertexID, k int, lo, hi dag.VertexID) int {
	q1, orig, verdict, memo := w.l.snap.q1, w.l.snap.orig, w.verdict, w.memo
	for u := lo; u < hi; u++ {
		r := verdict[q1[u]]
		if r == askSkeleton {
			if r = memoAt(memo, orig[u]); r == askSkeleton {
				r = w.probe(orig[u])
			}
		}
		out[k] = u
		if u != w.v {
			k += int(r & inCone)
		}
	}
	return k
}

// probe answers πr's origin part for origin o with the skeleton and
// records the verdict in the memo, if the memo covers o.
func (w *coneWalk) probe(o dag.VertexID) uint8 {
	r := outOfCone
	if w.up && w.l.skeleton.Reachable(o, w.s.Orig) || !w.up && w.l.skeleton.Reachable(w.s.Orig, o) {
		r = inCone
	}
	if uint(o) < uint(len(w.memo)) {
		w.memo[o] = r
	}
	return r
}

// memoAt returns origin o's memo entry, or askSkeleton when the memo
// does not cover o.
func memoAt(memo []uint8, o dag.VertexID) uint8 {
	if uint(o) < uint(len(memo)) {
		return memo[o]
	}
	return askSkeleton
}
