package core

import (
	"sync"

	"repro/internal/dag"
)

// maxConeMemo bounds the per-query skeleton memo (one byte per spec
// vertex) when the snapshot header declares more spec vertices than the
// run has vertices; beyond it, AppendCone probes the skeleton directly.
const maxConeMemo = 1 << 16

// Cone verdicts. A context is in the cone, out of it, or left to the
// skeleton query on each member's origin (askSkeleton); an origin's
// memo entry is askSkeleton until the skeleton has been probed for it.
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
// cone equals a scan of ReachableLabels over all n vertices, computed in
// O(n⁺_T + n) with no index.
//
// Algorithm 3's predicate πr splits in two. Its context test reads only
// (Q1, Q2, Q3), which every vertex of one plan context shares, so when
// d2·d3 < 0 one comparison against a context's row decides all its
// vertices. Otherwise the answer is the skeleton query on the origins,
// and a per-query memo over spec vertices makes that at most one
// skeleton.Reachable per origin rather than per vertex. So AppendCone
// first decides each context once, then scans the context column in
// vertex order, appending the vertices whose context (or origin) is in
// the cone.
func (l *Labeling) AppendCone(dst []dag.VertexID, v dag.VertexID, up bool) []dag.VertexID {
	s := l.Label(v)
	sc := coneScratchPool.Get().(*coneScratch)
	contexts := len(l.snap.ord) / 2
	if cap(sc.verdict) < contexts {
		sc.verdict = make([]uint8, contexts)
	}
	verdict := sc.verdict[:contexts]
	var memo []uint8
	if numSpec := l.snap.NumSpec; numSpec <= max(l.NumVertices(), maxConeMemo) {
		if cap(sc.memo) < numSpec {
			sc.memo = make([]uint8, numSpec)
		}
		memo = sc.memo[:numSpec]
	}
	for q := range verdict {
		from, to := Label{Q1: uint32(q), Q2: l.snap.ord[2*q], Q3: l.snap.ord[2*q+1]}, s
		if !up {
			from, to = s, from
		}
		verdict[q] = askSkeleton
		if reach, decided := byContext(from, to); decided {
			verdict[q] = outOfCone
			if reach {
				verdict[q] = inCone
			}
		}
	}
	// skeleton answers πr's origin part for origin o, probing the
	// skeleton at most once per origin the memo covers.
	skeleton := func(o dag.VertexID) bool {
		inMemo := uint(o) < uint(len(memo))
		if inMemo && memo[o] != askSkeleton {
			return memo[o] == inCone
		}
		r := up && l.skeleton.Reachable(o, s.Orig) || !up && l.skeleton.Reachable(s.Orig, o)
		if inMemo {
			memo[o] = outOfCone
			if r {
				memo[o] = inCone
			}
		}
		return r
	}
	for u, q := range l.snap.q1 {
		switch verdict[q] {
		case outOfCone:
			continue
		case askSkeleton:
			if !skeleton(l.snap.orig[u]) {
				continue
			}
		}
		if dag.VertexID(u) != v {
			dst = append(dst, dag.VertexID(u))
		}
	}
	clear(memo)
	coneScratchPool.Put(sc)
	return dst
}
