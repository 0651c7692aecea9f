package run

import (
	"strconv"

	"repro/internal/dag"
	"repro/internal/spec"
)

// Namer is the one place run vertex names are made. Vertex v's name is
// the module name of its origin followed by its rank among the vertices
// of that origin numbered before it, counting from 1 in decimal without
// leading zeros: the paper's b1, b2, ... (Run.NameOf is the O(n)
// per-call reference).
//
// No name is stored. A Namer keeps three integer columns: each vertex's
// origin, each vertex's rank, and per origin its vertices in ID order,
// cut from one backing array when the run's size is known up front.
// Name and AppendName render module name and rank on demand. Vertex
// reads a name back by trying each split into a module-name prefix and
// a rank suffix (non-empty prefix, no leading zero, at most
// maxRankDigits digits): the split matches when the prefix is a module
// of the specification that has at least that many vertices. Module
// names that extend each other can give two vertices one name ("v471"
// is v4's 71st and v47's 1st); such a name resolves to the last vertex
// that bears it, the largest vertex among the matching splits.
//
// A Namer grows by Add, one vertex at a time, so a stream names its
// vertices as they execute and gets the names the finished run gets.
type Namer struct {
	spec     *spec.Spec
	origin   []dag.VertexID
	rank     []int32
	byOrigin [][]dag.VertexID
	// Vertex looks up only the splits that could match: a prefix that
	// starts like a module name and is no longer than the longest, a
	// rank no larger than the largest given.
	lead    [256]bool
	maxLen  int
	maxRank int32
}

// firstListCap is the capacity an origin's vertex list starts at when
// Add meets the origin first, so a namer grown by Add (a live stream)
// skips append's smallest growth steps. NewNamerFromOrigins cuts each
// list it can count to its exact size.
const firstListCap = 8

// maxRankDigits bounds a rank's decimal digits: ranks are int32.
const maxRankDigits = 10

// NewNamer names all vertices of the run.
func NewNamer(r *Run) *Namer {
	return NewNamerFromOrigins(r.Spec, r.Origin[:r.NumVertices()])
}

// NewNamerFromOrigins names run vertices 0..len(origin)-1 from their
// specification vertices alone, so a stored run's names come from its
// label snapshot without decoding the run graph; an empty origin gives
// a Namer for Add to grow. Every origin must be a vertex of s, and s
// must come from package spec's Builder or Validate: Vertex reads names
// back through its module index. The columns are sized up front by
// counting the origins, so the number of allocations does not grow
// with the run.
func NewNamerFromOrigins(s *spec.Spec, origin []dag.VertexID) *Namer {
	counts := make([]int32, s.NumVertices())
	for _, o := range origin {
		counts[o]++
	}
	nm := &Namer{
		spec:     s,
		origin:   make([]dag.VertexID, 0, len(origin)),
		rank:     make([]int32, 0, len(origin)),
		byOrigin: make([][]dag.VertexID, len(counts)),
	}
	all := make([]dag.VertexID, len(origin))
	for o, n := range counts {
		nm.byOrigin[o], all = all[:0:n], all[n:]
		name := s.NameOf(dag.VertexID(o))
		nm.lead[name[0]], nm.maxLen = true, max(nm.maxLen, len(name))
	}
	for _, o := range origin {
		nm.Add(o)
	}
	return nm
}

// Add names the next vertex, whose origin is specification vertex
// origin, and returns its ID.
func (nm *Namer) Add(origin dag.VertexID) dag.VertexID {
	v := dag.VertexID(len(nm.origin))
	nm.origin = append(nm.origin, origin)
	if cap(nm.byOrigin[origin]) == 0 {
		nm.byOrigin[origin] = make([]dag.VertexID, 0, firstListCap)
	}
	nm.byOrigin[origin] = append(nm.byOrigin[origin], v)
	r := int32(len(nm.byOrigin[origin]))
	nm.rank = append(nm.rank, r)
	nm.maxRank = max(nm.maxRank, r)
	return v
}

// Len returns the number of vertices named.
func (nm *Namer) Len() int { return len(nm.origin) }

// Origins returns each named vertex's specification vertex. The slice
// is the Namer's own column; callers must not modify it.
func (nm *Namer) Origins() []dag.VertexID { return nm.origin }

// AppendName appends the display name of vertex v to dst.
func (nm *Namer) AppendName(dst []byte, v dag.VertexID) []byte {
	dst = append(dst, nm.spec.NameOf(nm.origin[v])...)
	return strconv.AppendInt(dst, int64(nm.rank[v]), 10)
}

// Name returns the display name of vertex v.
func (nm *Namer) Name(v dag.VertexID) string {
	var buf [32]byte
	return string(nm.AppendName(buf[:0], v))
}

// Vertex resolves a display name back to its vertex.
func (nm *Namer) Vertex(name string) (dag.VertexID, bool) {
	return nm.VertexBytes([]byte(name))
}

// VertexBytes is Vertex for a byte-slice name. It allocates nothing, so
// lookup hot paths (the query server's hand-rolled /batch decoder)
// resolve names straight from their input.
func (nm *Namer) VertexBytes(name []byte) (dag.VertexID, bool) {
	last, found := dag.VertexID(0), false
	rank, scale := int64(0), int64(1)
	for i := len(name) - 1; i > 0 && len(name)-i <= maxRankDigits && '0' <= name[i] && name[i] <= '9'; i-- {
		rank += int64(name[i]-'0') * scale
		scale *= 10
		if name[i] == '0' || !nm.lead[name[0]] || i > nm.maxLen || rank > int64(nm.maxRank) {
			continue
		}
		if o, ok := nm.spec.VertexOfBytes(name[:i]); ok && rank <= int64(len(nm.byOrigin[o])) {
			last, found = max(last, nm.byOrigin[o][rank-1]), true
		}
	}
	return last, found
}
