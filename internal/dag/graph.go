// Package dag provides the directed-graph substrate used throughout the
// library: compact adjacency storage, topological sorting, reachability by
// graph search, transitive closure, and flow-network structure checks
// (single source / single sink, as required by the workflow model).
package dag

import "fmt"

// VertexID identifies a vertex within one Graph. IDs are dense: a graph
// with n vertices uses IDs 0..n-1.
type VertexID int32

// Edge is a directed edge from Tail to Head.
type Edge struct {
	Tail, Head VertexID
}

// Graph is a mutable directed multigraph with dense vertex IDs.
// It is not safe for concurrent mutation.
type Graph struct {
	out [][]VertexID
	in  [][]VertexID
	m   int
}

// New returns an empty graph with n vertices and no edges.
func New(n int) *Graph {
	return &Graph{out: make([][]VertexID, n), in: make([][]VertexID, n)}
}

// FromEdges returns the graph with n vertices that adding edges in order
// with AddEdge would build, with all adjacency storage allocated at
// once. It panics if an endpoint is out of range.
func FromEdges(n int, edges []Edge) *Graph {
	g := &Graph{out: make([][]VertexID, n), in: make([][]VertexID, n), m: len(edges)}
	deg := make([]int, 2*n) // out-degrees, then in-degrees
	for _, e := range edges {
		g.checkVertex(e.Tail)
		g.checkVertex(e.Head)
		deg[e.Tail]++
		deg[n+int(e.Head)]++
	}
	adj := make([]VertexID, 2*len(edges))
	off := 0
	for v, d := range deg {
		if d == 0 {
			continue
		}
		s := adj[off : off : off+d]
		if v < n {
			g.out[v] = s
		} else {
			g.in[v-n] = s
		}
		off += d
	}
	for _, e := range edges {
		g.out[e.Tail] = append(g.out[e.Tail], e.Head)
		g.in[e.Head] = append(g.in[e.Head], e.Tail)
	}
	return g
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.out) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return g.m }

// AddVertex adds a new vertex and returns its ID.
func (g *Graph) AddVertex() VertexID {
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return VertexID(len(g.out) - 1)
}

// AddEdge adds the directed edge (u, v). It panics if either endpoint is
// out of range. Parallel edges and self loops are representable (the
// workflow validator rejects them at a higher level).
func (g *Graph) AddEdge(u, v VertexID) {
	g.checkVertex(u)
	g.checkVertex(v)
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.m++
}

// Out returns the out-neighbors of v. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) Out(v VertexID) []VertexID {
	g.checkVertex(v)
	return g.out[v]
}

// In returns the in-neighbors of v. The returned slice is owned by the
// graph and must not be modified.
func (g *Graph) In(v VertexID) []VertexID {
	g.checkVertex(v)
	return g.in[v]
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v VertexID) int { g.checkVertex(v); return len(g.out[v]) }

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v VertexID) int { g.checkVertex(v); return len(g.in[v]) }

// Edges returns all edges in an unspecified but deterministic order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for u := range g.out {
		for _, v := range g.out[u] {
			es = append(es, Edge{VertexID(u), v})
		}
	}
	return es
}

// HasEdge reports whether at least one edge (u, v) exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	// Scan the smaller adjacency list.
	if len(g.out[u]) <= len(g.in[v]) {
		for _, w := range g.out[u] {
			if w == v {
				return true
			}
		}
		return false
	}
	for _, w := range g.in[v] {
		if w == u {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		out: make([][]VertexID, len(g.out)),
		in:  make([][]VertexID, len(g.in)),
		m:   g.m,
	}
	for i := range g.out {
		c.out[i] = append([]VertexID(nil), g.out[i]...)
		c.in[i] = append([]VertexID(nil), g.in[i]...)
	}
	return c
}

// Sources returns the vertices with in-degree zero, in increasing ID order.
func (g *Graph) Sources() []VertexID {
	var s []VertexID
	for v := range g.in {
		if len(g.in[v]) == 0 {
			s = append(s, VertexID(v))
		}
	}
	return s
}

// Sinks returns the vertices with out-degree zero, in increasing ID order.
func (g *Graph) Sinks() []VertexID {
	var s []VertexID
	for v := range g.out {
		if len(g.out[v]) == 0 {
			s = append(s, VertexID(v))
		}
	}
	return s
}

// FlowNetworkTerminals returns the unique source and sink of g if g is an
// acyclic flow network (single source, single sink, acyclic). Otherwise it
// returns an error describing the first violated condition.
func (g *Graph) FlowNetworkTerminals() (source, sink VertexID, err error) {
	if g.NumVertices() == 0 {
		return 0, 0, fmt.Errorf("dag: empty graph is not a flow network")
	}
	srcs := g.Sources()
	if len(srcs) != 1 {
		return 0, 0, fmt.Errorf("dag: flow network needs exactly 1 source, found %d", len(srcs))
	}
	snks := g.Sinks()
	if len(snks) != 1 {
		return 0, 0, fmt.Errorf("dag: flow network needs exactly 1 sink, found %d", len(snks))
	}
	if _, ok := g.TopoSort(); !ok {
		return 0, 0, fmt.Errorf("dag: graph contains a cycle")
	}
	return srcs[0], snks[0], nil
}

func (g *Graph) checkVertex(v VertexID) {
	if v < 0 || int(v) >= len(g.out) {
		panic(fmt.Sprintf("dag: vertex %d out of range [0,%d)", v, len(g.out)))
	}
}
