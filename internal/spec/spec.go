// Package spec implements workflow specifications: a uniquely-labeled
// acyclic flow network G together with a well-nested system of fork and
// loop subgraphs (F, L), per Definitions 1–3 of Bao et al. (SIGMOD 2010).
//
// A Spec is immutable once built. Use Builder to assemble one; Build
// validates every model constraint (self-containment, atomicity for forks,
// completeness for loops, well-nestedness) and derives the fork-and-loop
// hierarchy T_G used by the labeling algorithms.
package spec

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/dag"
)

// ModuleName is the unique name of a module (vertex) in a specification.
type ModuleName string

// Kind distinguishes fork subgraphs from loop subgraphs.
type Kind uint8

const (
	// Fork subgraphs are atomic self-contained subgraphs replicated in
	// parallel; they dominate only their internal vertices.
	Fork Kind = iota
	// Loop subgraphs are complete self-contained subgraphs replicated in
	// series; they dominate all their vertices including the terminals.
	Loop
)

func (k Kind) String() string {
	switch k {
	case Fork:
		return "fork"
	case Loop:
		return "loop"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Subgraph is a fork or loop subgraph of the specification graph.
type Subgraph struct {
	Kind   Kind
	Source dag.VertexID
	Sink   dag.VertexID
	// Edges is the edge set E(H), sorted by (Tail, Head).
	Edges []dag.Edge
	// Vertices is V(H) = all endpoints of Edges, sorted.
	Vertices []dag.VertexID
	// Internal is V*(H) = V(H) \ {Source, Sink}, sorted.
	Internal []dag.VertexID
}

// DomSet returns the set of specification vertices dominated by the
// subgraph: internal vertices for a fork, all vertices for a loop (Def. 2).
func (h *Subgraph) DomSet() []dag.VertexID {
	if h.Kind == Fork {
		return h.Internal
	}
	return h.Vertices
}

// HasEdge reports whether (u,v) ∈ E(H), by binary search.
func (h *Subgraph) HasEdge(u, v dag.VertexID) bool {
	i := sort.Search(len(h.Edges), func(i int) bool {
		e := h.Edges[i]
		return e.Tail > u || (e.Tail == u && e.Head >= v)
	})
	return i < len(h.Edges) && h.Edges[i] == dag.Edge{Tail: u, Head: v}
}

// HasVertex reports whether v ∈ V(H), by binary search.
func (h *Subgraph) HasVertex(v dag.VertexID) bool {
	i := sort.Search(len(h.Vertices), func(i int) bool { return h.Vertices[i] >= v })
	return i < len(h.Vertices) && h.Vertices[i] == v
}

// Spec is a validated workflow specification (G, F, L).
type Spec struct {
	// Graph is the specification graph G.
	Graph *dag.Graph
	// Names maps each vertex to its unique module name.
	Names []ModuleName
	// Source and Sink are the unique terminals of G.
	Source, Sink dag.VertexID
	// Subgraphs lists all fork and loop subgraphs. The hierarchy node for
	// Subgraphs[i] is i+1 (node 0 is the root, representing all of G).
	Subgraphs []*Subgraph
	// Hier is the fork-and-loop hierarchy T_G.
	Hier *Hierarchy

	// Validate fills the module index, the pair table and, per
	// hierarchy node, the region, the direct vertices and the direct
	// edges; a Spec assembled as a struct literal has none of them
	// until then.
	byName      map[ModuleName]dag.VertexID
	pairs       map[uint64]int32
	regions     []*bitset.Set
	direct      [][]dag.VertexID
	directEdges [][]dag.Edge
}

// NumVertices returns |V(G)|.
func (s *Spec) NumVertices() int { return s.Graph.NumVertices() }

// NumEdges returns |E(G)|.
func (s *Spec) NumEdges() int { return s.Graph.NumEdges() }

// NameOf returns the module name of vertex v.
func (s *Spec) NameOf(v dag.VertexID) ModuleName { return s.Names[v] }

// VertexOf returns the vertex with the given module name. It panics on
// a Spec that has module names but was never validated, which has no
// module index to look them up in.
func (s *Spec) VertexOf(name ModuleName) (dag.VertexID, bool) {
	if s.byName == nil && len(s.Names) > 0 {
		unvalidated("VertexOf")
	}
	v, ok := s.byName[name]
	return v, ok
}

// VertexOfBytes is VertexOf for a byte-slice name; the conversion in
// the map index does not allocate, so decoders resolve module names
// straight from their input.
func (s *Spec) VertexOfBytes(name []byte) (dag.VertexID, bool) {
	if s.byName == nil && len(s.Names) > 0 {
		unvalidated("VertexOfBytes")
	}
	v, ok := s.byName[ModuleName(name)]
	return v, ok
}

// unvalidated panics for a lookup in a table only Validate fills.
func unvalidated(method string) {
	panic("spec: " + method + " on a Spec that was never validated; build it with a Builder or call spec.Validate")
}

// Hierarchy is the fork-and-loop hierarchy T_G (an unordered tree). Node 0
// is the root and corresponds to the entire specification graph; node i >= 1
// corresponds to Subgraphs[i-1].
type Hierarchy struct {
	// Parent[i] is the parent of node i; Parent[0] == -1.
	Parent []int
	// Children[i] lists the children of node i in increasing node order.
	Children [][]int
	// Index[i] is node i's position in Children[Parent[i]]; Index[0] is 0.
	Index []int
	// Depth[i] is the depth of node i; the root has depth 1.
	Depth []int
	// MaxDepth is the paper's [T_G]: the depth of the deepest node.
	MaxDepth int
	// byDepth[d] lists the nodes at depth d (1-based).
	byDepth [][]int
}

// NumNodes returns |T_G| (forks + loops + 1).
func (h *Hierarchy) NumNodes() int { return len(h.Parent) }

// NodesAtDepth returns the hierarchy nodes at depth d (root depth is 1).
func (h *Hierarchy) NodesAtDepth(d int) []int {
	if d < 1 || d > h.MaxDepth {
		return nil
	}
	return h.byDepth[d]
}

// SubgraphOf returns the subgraph of hierarchy node i, or nil for the root.
func (s *Spec) SubgraphOf(node int) *Subgraph {
	if node == 0 {
		return nil
	}
	return s.Subgraphs[node-1]
}

// NodeOf returns the hierarchy node of subgraph index i (into Subgraphs).
func (s *Spec) NodeOf(i int) int { return i + 1 }

// SourceOf returns s(H) for hierarchy node i; for the root it is s(G).
func (s *Spec) SourceOf(node int) dag.VertexID {
	if node == 0 {
		return s.Source
	}
	return s.Subgraphs[node-1].Source
}

// SinkOf returns t(H) for hierarchy node i; for the root it is t(G).
func (s *Spec) SinkOf(node int) dag.VertexID {
	if node == 0 {
		return s.Sink
	}
	return s.Subgraphs[node-1].Sink
}

// KindOf returns the kind of hierarchy node i. The root is reported as
// Loop because, like a loop copy, the root region dominates its terminals.
func (s *Spec) KindOf(node int) Kind {
	if node == 0 {
		return Loop
	}
	return s.Subgraphs[node-1].Kind
}

// EdgeOwner returns, for every edge of G (indexed as in Graph.Edges()), the
// innermost hierarchy node whose subgraph contains the edge; edges outside
// all subgraphs map to the root (0).
func (s *Spec) EdgeOwner() []int {
	edges := s.Graph.Edges()
	owner := make([]int, len(edges))
	// Deeper nodes win; initialize to root.
	for i, e := range edges {
		best, bestDepth := 0, 1
		for j, sub := range s.Subgraphs {
			if sub.HasEdge(e.Tail, e.Head) {
				node := j + 1
				if d := s.Hier.Depth[node]; d > bestDepth {
					best, bestDepth = node, d
				}
			}
		}
		owner[i] = best
	}
	return owner
}

// DirectVertices returns, for hierarchy node i, the vertices that belong to
// the node's region but to no descendant's DomSet, excluding the region's
// own terminals when the node is a fork (forks do not dominate terminals)
// and excluding nothing extra for loops or the root, in increasing order.
// These are exactly the vertices whose context in a run copy of this node
// is the copy itself, unless claimed by a deeper shared-terminal loop.
// Validate computes the lists once; the returned slice is the Spec's own
// and must not be modified. It panics on a Spec that was never validated.
func (s *Spec) DirectVertices(node int) []dag.VertexID {
	if s.direct == nil {
		unvalidated("DirectVertices")
	}
	return s.direct[node]
}

// DirectEdges returns the edges of hierarchy node i's region that belong
// to no child's subgraph: the edges EdgeOwner assigns to the node, in
// Graph.Edges() order. Validate computes the lists once; the returned
// slice is the Spec's own and must not be modified. It panics on a Spec
// that was never validated.
func (s *Spec) DirectEdges(node int) []dag.Edge {
	if s.directEdges == nil {
		unvalidated("DirectEdges")
	}
	return s.directEdges[node]
}

// directTables computes every hierarchy node's direct vertices and
// direct edges, for Validate once the hierarchy is built.
func (s *Spec) directTables() ([][]dag.VertexID, [][]dag.Edge) {
	k := s.Hier.NumNodes()
	direct := make([][]dag.VertexID, k)
	in := make([]bool, s.Graph.NumVertices())
	for node := range direct {
		if node == 0 {
			for v := range in {
				in[v] = true
			}
		} else {
			sub := s.Subgraphs[node-1]
			for _, v := range sub.Vertices {
				in[v] = true
			}
			if sub.Kind == Fork {
				in[sub.Source], in[sub.Sink] = false, false
			}
		}
		for _, c := range s.Hier.Children[node] {
			for _, v := range s.Subgraphs[c-1].DomSet() {
				in[v] = false
			}
		}
		for v, ok := range in {
			if ok {
				direct[node] = append(direct[node], dag.VertexID(v))
				in[v] = false
			}
		}
	}
	edges := make([][]dag.Edge, k)
	owner := s.EdgeOwner()
	for i, e := range s.Graph.Edges() {
		edges[owner[i]] = append(edges[owner[i]], e)
	}
	return direct, edges
}

// AllowsRunEdge reports whether a run edge may join a vertex of origin t
// to a vertex of origin h: (t, h) is a specification edge or the
// connector (t(H), s(H)) of a loop H. It is one probe of the pair table
// Validate builds. It panics on a Spec that was never validated.
func (s *Spec) AllowsRunEdge(t, h dag.VertexID) bool {
	_, ok := s.pair("AllowsRunEdge", t, h)
	return ok
}

// LeafLeader returns the leaf hierarchy node whose first edge
// (Subgraphs[node-1].Edges[0], its leader) is (t, h), or 0 when (t, h)
// leads no leaf. A run edge whose origin pair leads a leaf seeds a copy
// of that leaf in plan construction. It panics on a Spec that was never
// validated.
func (s *Spec) LeafLeader(t, h dag.VertexID) int {
	leader, _ := s.pair("LeafLeader", t, h)
	return int(leader)
}

// Region returns V(H) of hierarchy node i as a set over specification
// vertices (every vertex for the root). Validate builds the sets once;
// the returned set is the Spec's own and must not be modified. It
// panics on a Spec that was never validated.
func (s *Spec) Region(node int) *bitset.Set {
	if s.regions == nil {
		unvalidated("Region")
	}
	return s.regions[node]
}

func (s *Spec) pair(method string, t, h dag.VertexID) (int32, bool) {
	if s.pairs == nil {
		unvalidated(method)
	}
	leader, ok := s.pairs[pairKey(t, h)]
	return leader, ok
}

// buildPairs builds, once the hierarchy is built, the table of origin
// pairs a run edge may join: every edge of G and every loop connector
// (t(H), s(H)). Each pair maps to the leaf hierarchy node whose first
// edge it is, or 0.
func (s *Spec) buildPairs() map[uint64]int32 {
	pairs := make(map[uint64]int32, s.Graph.NumEdges()+len(s.Subgraphs))
	for u := range s.Graph.NumVertices() {
		for _, v := range s.Graph.Out(dag.VertexID(u)) {
			pairs[pairKey(dag.VertexID(u), v)] = 0
		}
	}
	for _, sub := range s.Subgraphs {
		if sub.Kind == Loop {
			pairs[pairKey(sub.Sink, sub.Source)] = 0
		}
	}
	// Leaders last: a leaf's first edge may also be a loop connector.
	for i, sub := range s.Subgraphs {
		if h := i + 1; len(s.Hier.Children[h]) == 0 {
			pairs[pairKey(sub.Edges[0].Tail, sub.Edges[0].Head)] = int32(h)
		}
	}
	return pairs
}

// pairKey packs (t, h) into the pair table's key. A uint64 key takes
// the map's 64-bit fast path, which a [2]dag.VertexID key does not:
// with it Run.Validate read about twice as slow.
func pairKey(t, h dag.VertexID) uint64 { return uint64(uint32(t))<<32 | uint64(uint32(h)) }

// regionSets builds V(H) of every hierarchy node as a set, the root's
// holding every vertex.
func (s *Spec) regionSets() []*bitset.Set {
	n := s.Graph.NumVertices()
	regions := make([]*bitset.Set, s.Hier.NumNodes())
	regions[0] = bitset.New(n)
	for v := range n {
		regions[0].Set(v)
	}
	for i, sub := range s.Subgraphs {
		regions[i+1] = bitset.New(n)
		for _, v := range sub.Vertices {
			regions[i+1].Set(int(v))
		}
	}
	return regions
}
