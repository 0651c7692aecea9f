package run

import (
	"encoding/binary"
	"math/bits"
	"slices"
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
// origin, each vertex's rank, and per origin its vertices in ID order.
// A Namer built for a whole run shares the caller's origin column (a
// stored run's is its label snapshot's) and cuts the per-origin lists
// from one backing array.
// Name and AppendName render module name and rank on demand,
// AppendQuotedNames a whole list of names in one pass. Vertex reads a
// name back by trying each split into a module-name prefix and a rank
// suffix (non-empty prefix, no leading zero, at most maxRankDigits
// digits): the split matches when the prefix is a module
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
	// lists is the chunk Add cuts an origin's first list from.
	lists []dag.VertexID
	// Vertex looks up only the splits that could match: a prefix that
	// starts like a module name and is no longer than the longest, a
	// rank no larger than the largest given.
	lead    [256]bool
	maxLen  int
	maxRank int32
}

// firstListCap is the capacity an origin's vertex list starts at when
// Add meets the origin first, so a namer grown by Add (a live stream)
// skips append's smallest growth steps. Add cuts these first lists from
// a shared chunk of up to listChunk lists (no more than the spec has
// modules), so meeting a new origin seldom allocates. NewNamerFromOrigins cuts each list it can count to its
// exact size.
const (
	firstListCap = 8
	listChunk    = 64
)

// maxRankDigits bounds a rank's decimal digits: ranks are int32.
const maxRankDigits = 10

// NewNamer names all vertices of the run. The Namer shares the run's
// origin column.
func NewNamer(r *Run) *Namer {
	return NewNamerFromOrigins(r.Spec, r.Origin[:r.NumVertices()])
}

// NewNamerFromOrigins names run vertices 0..len(origin)-1 from their
// specification vertices alone, so a stored run's names come from its
// label snapshot without decoding the run graph; an empty origin gives
// a Namer for Add to grow. Every origin must be a vertex of s, and s
// must come from package spec's Builder or Validate: Vertex reads names
// back through its module index.
//
// The Namer shares origin as its origin column, so the caller must not
// modify it; the Namer never writes it either: the column is clipped to
// its length, so a later Add copies it before appending. The other two
// columns take two counting passes over origin: the first counts each
// origin, and a vertex's rank is its origin's count so far; the second
// puts each vertex into its origin's list, cut to the origin's count
// from one backing array, at its rank. The number of allocations does
// not grow with the run.
func NewNamerFromOrigins(s *spec.Spec, origin []dag.VertexID) *Namer {
	n := len(origin)
	counts := make([]int32, s.NumVertices())
	nm := &Namer{
		spec:     s,
		origin:   origin[:n:n],
		rank:     make([]int32, n),
		byOrigin: make([][]dag.VertexID, len(counts)),
	}
	for v, o := range origin {
		counts[o]++
		nm.rank[v] = counts[o]
	}
	// counts[o] becomes the index just before origin o's list in all,
	// so vertex v, whose rank counts from 1, goes at counts[o] + rank.
	all, end := make([]dag.VertexID, n), int32(0)
	for o, c := range counts {
		nm.byOrigin[o] = all[end : end+c : end+c]
		counts[o], end = end-1, end+c
		nm.maxRank = max(nm.maxRank, c)
		name := s.NameOf(dag.VertexID(o))
		nm.lead[name[0]], nm.maxLen = true, max(nm.maxLen, len(name))
	}
	for v, o := range origin {
		all[counts[o]+nm.rank[v]] = dag.VertexID(v)
	}
	return nm
}

// Add names the next vertex, whose origin is specification vertex
// origin, and returns its ID.
func (nm *Namer) Add(origin dag.VertexID) dag.VertexID {
	v := dag.VertexID(len(nm.origin))
	nm.origin = append(nm.origin, origin)
	if cap(nm.byOrigin[origin]) == 0 {
		if cap(nm.lists)-len(nm.lists) < firstListCap {
			nm.lists = make([]dag.VertexID, 0, min(listChunk, len(nm.byOrigin))*firstListCap)
		}
		n := len(nm.lists)
		nm.lists = nm.lists[:n+firstListCap]
		nm.byOrigin[origin] = nm.lists[n : n : n+firstListCap]
	}
	nm.byOrigin[origin] = append(nm.byOrigin[origin], v)
	r := int32(len(nm.byOrigin[origin]))
	nm.rank = append(nm.rank, r)
	nm.maxRank = max(nm.maxRank, r)
	return v
}

// Grow makes room for n more vertices in the columns Add appends to
// every time (each vertex's origin and rank), so a caller that knows how
// many it will add grows them once.
func (nm *Namer) Grow(n int) {
	nm.origin = slices.Grow(nm.origin, n)
	nm.rank = slices.Grow(nm.rank, n)
}

// Len returns the number of vertices named.
func (nm *Namer) Len() int { return len(nm.origin) }

// Origins returns each named vertex's specification vertex. The slice
// is the Namer's origin column, which a Namer built by
// NewNamerFromOrigins shares with its caller; callers must not modify
// it.
func (nm *Namer) Origins() []dag.VertexID { return nm.origin }

// AppendName appends the display name of vertex v to dst.
func (nm *Namer) AppendName(dst []byte, v dag.VertexID) []byte {
	dst = append(dst, nm.spec.NameOf(nm.origin[v])...)
	return strconv.AppendInt(dst, int64(nm.rank[v]), 10)
}

// AppendQuotedNames appends the names of vs to dst, each in double
// quotes, separated by commas: "b1","b2",... — the elements of a JSON
// array when no module name needs escaping. It grows dst once, by
// len(vs) × (longest module name + the largest rank's digits + 3), and
// then writes each name with no per-name capacity check or strconv
// call: the module name by copy, the rank's digits two at a time from
// a table.
func (nm *Namer) AppendQuotedNames(dst []byte, vs []dag.VertexID) []byte {
	if len(vs) == 0 {
		return dst
	}
	n := len(dst)
	b := slices.Grow(dst, len(vs)*(nm.maxLen+decimalLen(uint32(nm.maxRank))+3))
	b = b[:cap(b)]
	names, origin, rank := nm.spec.Names, nm.origin, nm.rank
	for _, v := range vs {
		b[n] = '"'
		n += 1 + copy(b[n+1:], names[origin[v]])
		n = putDecimal(b, n, uint32(rank[v]))
		b[n], b[n+1] = '"', ','
		n += 2
	}
	return b[:n-1]
}

// digitPairs holds the two decimal digits of 0 to 99 as little-endian
// ASCII pairs: the tens digit in the low byte.
var digitPairs = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

// putDecimal writes x in decimal into b from index n and returns the
// index after its last digit.
func putDecimal(b []byte, n int, x uint32) int {
	end := n + decimalLen(x)
	for i := end; ; {
		if x < 10 {
			b[i-1] = byte('0' + x)
			return end
		}
		i -= 2
		binary.LittleEndian.PutUint16(b[i:], digitPairs[x%100])
		if x /= 100; x == 0 {
			return end
		}
	}
}

// pow10[t] is the least number of t+1 digits; pow10[0] is 0, so 0 has
// one digit.
var pow10 = [...]uint32{0, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decimalLen returns the number of decimal digits of x: bits.Len32
// times log10(2) (1233/4096) is that number or one less.
func decimalLen(x uint32) int {
	t := bits.Len32(x|1) * 1233 >> 12
	if x < pow10[t] {
		return t
	}
	return t + 1
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
