package run

import (
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"repro/internal/dag"
	"repro/internal/spec"
)

// Namer is the one place run vertex names are made. Vertex v's name is
// the module name of its origin followed by its rank among the vertices
// of that origin numbered before it, counting from 1 in decimal without
// leading zeros: the paper's b1, b2, ... (Run.NameOf is the O(n)
// per-call reference). Module names that extend each other can give two
// vertices one name ("v471" is v4's 71st and v47's 1st); such a name
// resolves to the last vertex that bears it.
//
// A Namer grows by Add, one vertex at a time, so a stream names its
// vertices as they execute and gets the names the finished run gets.
// All names are appended to one buffer: vertex v's name ends at ends[v]
// and starts where v-1's ends, so a name costs 4 bytes of index beyond
// its text. Bytes once appended are never rewritten (growth copies them
// to a new array and leaves the old one as it was), so Name and the
// index keys alias the buffer as strings without copying, the way
// strings.Builder's String does.
type Namer struct {
	spec   *spec.Spec
	all    []byte // append-only
	ends   []int32
	counts []int32 // vertices named so far per origin
	byName map[string]dag.VertexID
}

// NewNamer indexes all vertex names of the run.
func NewNamer(r *Run) *Namer {
	return NewNamerFromOrigins(r.Spec, r.Origin[:r.NumVertices()])
}

// NewNamerFromOrigins names run vertices 0..len(origin)-1 from their
// specification vertices alone, so a stored run's names come from its
// label snapshot without decoding the run graph; an empty origin gives
// a Namer for Add to grow. Every origin must be a vertex of s. The
// buffer is sized up front, so the number of allocations does not grow
// with the run. It renders into a local buffer and indexes afterwards,
// not through Add: building a cold session's namer is the largest stage
// of a cache miss, and the loop over Add measured 10-20% slower.
func NewNamerFromOrigins(s *spec.Spec, origin []dag.VertexID) *Namer {
	counts := make([]int32, s.NumVertices())
	size := 0
	var digits [10]byte
	for _, o := range origin {
		counts[o]++
		size += len(s.NameOf(o)) + len(strconv.AppendInt(digits[:0], int64(counts[o]), 10))
	}
	checkSize(size)
	clear(counts)
	buf := make([]byte, 0, size)
	ends := make([]int32, len(origin))
	for v, o := range origin {
		counts[o]++
		buf = appendName(buf, s.NameOf(o), counts[o])
		ends[v] = int32(len(buf))
	}
	nm := &Namer{spec: s, all: buf, ends: ends, counts: counts}
	nm.byName = make(map[string]dag.VertexID, len(origin))
	for v := range ends {
		nm.byName[nm.Name(dag.VertexID(v))] = dag.VertexID(v)
	}
	return nm
}

// Add names the next vertex, whose origin is specification vertex
// origin, and returns its ID. All names must total under 2 GiB.
func (nm *Namer) Add(origin dag.VertexID) dag.VertexID {
	v := dag.VertexID(len(nm.ends))
	nm.counts[origin]++
	nm.all = appendName(nm.all, nm.spec.NameOf(origin), nm.counts[origin])
	checkSize(len(nm.all))
	nm.ends = append(nm.ends, int32(len(nm.all)))
	nm.byName[nm.Name(v)] = v
	return v
}

// checkSize panics when size bytes of names overflow the int32 ends.
func checkSize(size int) {
	if size > math.MaxInt32 {
		panic(fmt.Sprintf("run: %d bytes of vertex names exceed the namer's 2 GiB", size))
	}
}

// appendName appends the name of a vertex of the given module and rank.
func appendName(dst []byte, module spec.ModuleName, rank int32) []byte {
	return strconv.AppendInt(append(dst, module...), int64(rank), 10)
}

// Len returns the number of vertices named.
func (nm *Namer) Len() int { return len(nm.ends) }

// Name returns the display name of vertex v.
func (nm *Namer) Name(v dag.VertexID) string {
	start := int32(0)
	if v > 0 {
		start = nm.ends[v-1]
	}
	return unsafe.String(unsafe.SliceData(nm.all), len(nm.all))[start:nm.ends[v]]
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
