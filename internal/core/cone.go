package core

import (
	"math/bits"
	"sync"

	"repro/internal/bitset"
	"repro/internal/dag"
)

// coneIndex groups run vertices by plan context for AppendCone: a
// counting sort of vertex IDs by Q1 laid out as CSR. Bucket b holds the
// vertices members[start[b]:start[b+1]], in ascending ID. The last
// bucket collects every Q1 beyond the regular buckets' range, and mixed
// marks the buckets AppendCone must evaluate vertex by vertex.
type coneIndex struct {
	start   []int32
	members []int32
	mixed   *bitset.Set
}

// maxConeMemo bounds the per-query skeleton memo (one byte per spec
// vertex) when the snapshot header declares more spec vertices than the
// run has vertices; beyond it, AppendCone probes the skeleton directly.
const maxConeMemo = 1 << 16

// coneScratch is one AppendCone call's scratch: the n-bit hit set and
// the skeleton memo (0 unknown, 1 reachable, 2 not). Both are zero in
// the pool; a call that panics (a skeleton given an origin it does not
// know) drops its scratch instead of returning it dirty.
type coneScratch struct {
	hits []uint64
	memo []uint8
}

var coneScratchPool = sync.Pool{New: func() any { return new(coneScratch) }}

// buildConeIndex sorts vertex IDs into Q1 buckets in O(n + n⁺_T). A
// legitimate labeling gives all vertices of one context the same
// (Q1, Q2, Q3) and different contexts different Q1, but labels may come
// from an untrusted snapshot, so the index never relies on it: Q1 values
// at or above the regular range share one overflow bucket, and any
// bucket whose members disagree on (Q2, Q3) is marked mixed. The regular
// range is capped at n+1 buckets, so a hostile n⁺_T costs no memory.
func (l *Labeling) buildConeIndex() *coneIndex {
	nb := min(l.numPositioned, len(l.labels)) + 1 // regular buckets 0..nb-1; nb overflows
	bucket := func(q1 uint32) int { return int(min(q1, uint32(nb))) }
	ix := &coneIndex{
		start:   make([]int32, nb+2),
		members: make([]int32, len(l.labels)),
		mixed:   bitset.New(nb + 1),
	}
	for _, lab := range l.labels {
		ix.start[bucket(lab.Q1)+1]++
	}
	for b := 1; b < len(ix.start); b++ {
		ix.start[b] += ix.start[b-1]
	}
	// Place each vertex at its bucket's cursor; afterwards start[b] is
	// bucket b's end, so shift by one to turn ends back into starts.
	for v, lab := range l.labels {
		b := bucket(lab.Q1)
		ix.members[ix.start[b]] = int32(v)
		ix.start[b]++
	}
	copy(ix.start[1:], ix.start[:len(ix.start)-1])
	ix.start[0] = 0
	for b := 0; b < nb; b++ {
		m := ix.members[ix.start[b]:ix.start[b+1]]
		if len(m) == 0 {
			continue
		}
		first := l.labels[m[0]]
		for _, u := range m[1:] {
			if lab := l.labels[u]; lab.Q2 != first.Q2 || lab.Q3 != first.Q3 {
				ix.mixed.Set(b)
				break
			}
		}
	}
	ix.mixed.Set(nb)
	return ix
}

// AppendCone appends v's lineage cone to dst in ascending vertex ID and
// returns the extended slice: every other vertex that reaches v when up
// is true (the upstream cone), every vertex v reaches otherwise. The
// cone equals a scan of ReachableLabels over all n vertices, computed in
// O(n⁺_T + |cone|) plus an n/64-word set scan.
//
// Algorithm 3's predicate πr splits in two. Its context test reads only
// (Q1, Q2, Q3), which every vertex of one plan context shares, so when
// d2·d3 < 0 one comparison against a context decides the whole group.
// Otherwise the answer is the skeleton query on the origins, and a
// per-query memo over spec vertices makes that at most one
// skeleton.Reachable per origin rather than per vertex.
//
// The first call builds the context index (buildConeIndex) in O(n + n⁺_T)
// under a sync.Once; a Labeling never asked for a cone never pays for
// it. Labels from an untrusted snapshot cannot change an answer:
// overflow and mixed buckets are evaluated vertex by vertex with
// ReachableLabels itself.
func (l *Labeling) AppendCone(dst []dag.VertexID, v dag.VertexID, up bool) []dag.VertexID {
	l.coneOnce.Do(func() { l.cone = l.buildConeIndex() })
	ix := l.cone
	s := l.labels[v]
	sc := coneScratchPool.Get().(*coneScratch)
	words := (len(l.labels) + 63) / 64
	if cap(sc.hits) < words {
		sc.hits = make([]uint64, words)
	}
	hits := sc.hits[:words]
	var memo []uint8
	if l.numSpec <= max(len(l.labels), maxConeMemo) {
		if cap(sc.memo) < l.numSpec {
			sc.memo = make([]uint8, l.numSpec)
		}
		memo = sc.memo[:l.numSpec]
	}
	// skeleton answers πr's origin part for origin o, probing the
	// skeleton at most once per origin the memo covers.
	skeleton := func(o dag.VertexID) bool {
		inMemo := uint(o) < uint(len(memo))
		if inMemo && memo[o] != 0 {
			return memo[o] == 1
		}
		r := up && l.skeleton.Reachable(o, s.Orig) || !up && l.skeleton.Reachable(s.Orig, o)
		if inMemo {
			memo[o] = 2
			if r {
				memo[o] = 1
			}
		}
		return r
	}
	for b := 0; b+1 < len(ix.start); b++ {
		m := ix.members[ix.start[b]:ix.start[b+1]]
		if len(m) == 0 {
			continue
		}
		if ix.mixed.Test(b) {
			for _, u := range m {
				lab := l.labels[u]
				if up && l.ReachableLabels(lab, s) || !up && l.ReachableLabels(s, lab) {
					hits[u/64] |= 1 << (u % 64)
				}
			}
			continue
		}
		from, to := l.labels[m[0]], s
		if !up {
			from, to = s, from
		}
		if reach, decided := byContext(from, to); decided {
			if reach {
				for _, u := range m {
					hits[u/64] |= 1 << (u % 64)
				}
			}
			continue
		}
		for _, u := range m {
			if skeleton(l.labels[u].Orig) {
				hits[u/64] |= 1 << (u % 64)
			}
		}
	}
	hits[v/64] &^= 1 << (v % 64)
	for i, w := range hits {
		for w != 0 {
			dst = append(dst, dag.VertexID(i*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
		hits[i] = 0
	}
	clear(memo)
	coneScratchPool.Put(sc)
	return dst
}
