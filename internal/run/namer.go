package run

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/dag"
	"repro/internal/spec"
)

// Namer resolves the display names of run vertices (module name plus
// occurrence subscript) in O(1) after an O(n) build, replacing the O(n)
// per-call Run.NameOf for callers that name many vertices. All names
// live in one rendered string: vertex v's name ends at ends[v] and
// starts where v-1's ends, so a name costs 4 bytes of index beyond its
// text, and Name slices it out without allocating.
type Namer struct {
	all    string
	ends   []int32
	byName map[string]dag.VertexID
}

// NewNamer indexes all vertex names of the run.
func NewNamer(r *Run) *Namer {
	return NewNamerFromOrigins(r.Spec, r.Origin[:r.NumVertices()])
}

// NewNamerFromOrigins indexes the names of run vertices 0..len(origin)-1
// from their specification vertices alone, so a stored run's names come
// from its label snapshot without decoding the run graph. Every origin
// must be a vertex of s, and the names must total under 2 GiB. The names
// are rendered into one buffer and sliced out of a single string, so the
// number of allocations does not grow with the run.
func NewNamerFromOrigins(s *spec.Spec, origin []dag.VertexID) *Namer {
	n := len(origin)
	counts := make([]int, s.NumVertices())
	size := 0
	var digits [20]byte
	for _, o := range origin {
		counts[o]++
		size += len(s.NameOf(o)) + len(strconv.AppendInt(digits[:0], int64(counts[o]), 10))
	}
	if size > math.MaxInt32 {
		panic(fmt.Sprintf("run: %d bytes of vertex names exceed the namer's 2 GiB", size))
	}
	clear(counts)
	buf := make([]byte, 0, size)
	ends := make([]int32, n)
	for v, o := range origin {
		counts[o]++
		buf = append(buf, s.NameOf(o)...)
		buf = strconv.AppendInt(buf, int64(counts[o]), 10)
		ends[v] = int32(len(buf))
	}
	nm := &Namer{all: string(buf), ends: ends, byName: make(map[string]dag.VertexID, n)}
	for v := range ends {
		nm.byName[nm.Name(dag.VertexID(v))] = dag.VertexID(v)
	}
	return nm
}

// Name returns the display name of vertex v.
func (nm *Namer) Name(v dag.VertexID) string {
	start := int32(0)
	if v > 0 {
		start = nm.ends[v-1]
	}
	return nm.all[start:nm.ends[v]]
}

// Vertex resolves a display name back to its vertex.
func (nm *Namer) Vertex(name string) (dag.VertexID, bool) {
	v, ok := nm.byName[name]
	return v, ok
}

// VertexBytes is Vertex for a byte-slice key: the compiler elides the
// string conversion in the map index, so lookup hot paths (the query
// server's hand-rolled /batch decoder) resolve names with zero
// allocation.
func (nm *Namer) VertexBytes(name []byte) (dag.VertexID, bool) {
	v, ok := nm.byName[string(name)]
	return v, ok
}
