package run

import (
	"strconv"

	"repro/internal/dag"
)

// Namer resolves the display names of run vertices (module name plus
// occurrence subscript) in O(1) after an O(n) build, replacing the O(n)
// per-call Run.NameOf for callers that name many vertices.
type Namer struct {
	names  []string
	byName map[string]dag.VertexID
}

// NewNamer indexes all vertex names of the run. The names are rendered
// into one buffer and sliced out of a single string, so the number of
// allocations does not grow with the run.
func NewNamer(r *Run) *Namer {
	n := r.NumVertices()
	counts := make([]int, r.Spec.NumVertices())
	size := 0
	var digits [20]byte
	for _, o := range r.Origin[:n] {
		counts[o]++
		size += len(r.Spec.NameOf(o)) + len(strconv.AppendInt(digits[:0], int64(counts[o]), 10))
	}
	clear(counts)
	buf := make([]byte, 0, size)
	ends := make([]int, n)
	for v, o := range r.Origin[:n] {
		counts[o]++
		buf = append(buf, r.Spec.NameOf(o)...)
		buf = strconv.AppendInt(buf, int64(counts[o]), 10)
		ends[v] = len(buf)
	}
	all := string(buf)
	names := make([]string, n)
	byName := make(map[string]dag.VertexID, n)
	start := 0
	for v, end := range ends {
		names[v] = all[start:end]
		byName[names[v]] = dag.VertexID(v)
		start = end
	}
	return &Namer{names: names, byName: byName}
}

// Name returns the display name of vertex v.
func (nm *Namer) Name(v dag.VertexID) string { return nm.names[v] }

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
