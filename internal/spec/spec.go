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

	byName map[ModuleName]dag.VertexID
}

// NumVertices returns |V(G)|.
func (s *Spec) NumVertices() int { return s.Graph.NumVertices() }

// NumEdges returns |E(G)|.
func (s *Spec) NumEdges() int { return s.Graph.NumEdges() }

// NameOf returns the module name of vertex v.
func (s *Spec) NameOf(v dag.VertexID) ModuleName { return s.Names[v] }

// VertexOf returns the vertex with the given module name.
func (s *Spec) VertexOf(name ModuleName) (dag.VertexID, bool) {
	v, ok := s.byName[name]
	return v, ok
}

// VertexOfBytes is VertexOf for a byte-slice name; the conversion in
// the map index does not allocate, so decoders resolve module names
// straight from their input.
func (s *Spec) VertexOfBytes(name []byte) (dag.VertexID, bool) {
	v, ok := s.byName[ModuleName(name)]
	return v, ok
}

// Hierarchy is the fork-and-loop hierarchy T_G (an unordered tree). Node 0
// is the root and corresponds to the entire specification graph; node i >= 1
// corresponds to Subgraphs[i-1].
type Hierarchy struct {
	// Parent[i] is the parent of node i; Parent[0] == -1.
	Parent []int
	// Children[i] lists the children of node i in increasing node order.
	Children [][]int
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
// and excluding nothing extra for loops or the root. These are exactly the
// vertices whose context in a run copy of this node is the copy itself,
// unless claimed by a deeper shared-terminal loop.
func (s *Spec) DirectVertices(node int) []dag.VertexID {
	inRegion := make(map[dag.VertexID]bool)
	if node == 0 {
		for v := 0; v < s.Graph.NumVertices(); v++ {
			inRegion[dag.VertexID(v)] = true
		}
	} else {
		sub := s.Subgraphs[node-1]
		for _, v := range sub.Vertices {
			inRegion[v] = true
		}
		if sub.Kind == Fork {
			delete(inRegion, sub.Source)
			delete(inRegion, sub.Sink)
		}
	}
	for _, c := range s.Hier.Children[node] {
		for _, v := range s.Subgraphs[c-1].DomSet() {
			delete(inRegion, v)
		}
	}
	out := make([]dag.VertexID, 0, len(inRegion))
	for v := range inRegion {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
