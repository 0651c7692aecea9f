// Package dag provides the directed-graph substrate used throughout the
// library: an immutable graph in compressed sparse row (CSR) form,
// topological sorting, reachability by graph search, transitive closure,
// and flow-network structure checks (single source / single sink, as
// required by the workflow model).
package dag

import "fmt"

// VertexID identifies a vertex within one Graph. IDs are dense: a graph
// with n vertices uses IDs 0..n-1.
type VertexID int32

// Edge is a directed edge from Tail to Head.
type Edge struct {
	Tail, Head VertexID
}

// Graph is an immutable directed multigraph with dense vertex IDs, in
// compressed sparse row form. One pointer-free array holds the whole
// graph: its first 2n+1 entries are list boundaries, positions in the
// array itself, and list l is csr[csr[l]:csr[l+1]], where lists 0..n-1
// are the out-lists and lists n..2n-1 the in-lists. That is 8 bytes per
// vertex plus 8 per edge, in one allocation. FromEdges is the only
// constructor, so a Graph never changes once built and is safe for
// concurrent use.
type Graph struct {
	n   int
	csr []VertexID
}

// FromEdges returns the graph with n vertices and the given edges. Each
// out-list and in-list keeps the order its edges have in edges. Parallel
// edges and self loops are representable (the workflow validator rejects
// them at a higher level). It panics if an endpoint is out of range.
func FromEdges(n int, edges []Edge) *Graph {
	// A counting sort of the endpoints: csr[l+1] counts list l, so the
	// prefix sums from csr[0], the first neighbour's position, put each
	// list's start at csr[l]. Filling list l then moves csr[l] to where
	// the list ends, and shifting the boundaries by one place gives
	// every list its start back.
	bounds := 2*n + 1
	g := &Graph{n: n, csr: make([]VertexID, bounds+2*len(edges))}
	csr := g.csr
	for _, e := range edges {
		g.checkVertex(e.Tail)
		g.checkVertex(e.Head)
		csr[e.Tail+1]++
		csr[n+int(e.Head)+1]++
	}
	csr[0] = VertexID(bounds)
	for l := 1; l < bounds; l++ {
		csr[l] += csr[l-1]
	}
	for _, e := range edges {
		csr[csr[e.Tail]] = e.Head
		csr[e.Tail]++
		csr[csr[n+int(e.Head)]] = e.Tail
		csr[n+int(e.Head)]++
	}
	copy(csr[1:bounds], csr[:bounds-1])
	csr[0] = VertexID(bounds)
	return g
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return (len(g.csr) - 2*g.n - 1) / 2 }

// list returns list l, capped so that appending to it cannot overwrite
// the next list.
func (g *Graph) list(l int) []VertexID {
	a, b := g.csr[l], g.csr[l+1]
	return g.csr[a:b:b]
}

// Out returns the out-neighbors of v, in the order their edges were
// given to FromEdges. The returned slice is owned by the graph and must
// not be modified.
func (g *Graph) Out(v VertexID) []VertexID {
	g.checkVertex(v)
	return g.list(int(v))
}

// In returns the in-neighbors of v, in the order their edges were given
// to FromEdges. The returned slice is owned by the graph and must not be
// modified.
func (g *Graph) In(v VertexID) []VertexID {
	g.checkVertex(v)
	return g.list(g.n + int(v))
}

// OutDegree returns the number of outgoing edges of v.
func (g *Graph) OutDegree(v VertexID) int { return len(g.Out(v)) }

// InDegree returns the number of incoming edges of v.
func (g *Graph) InDegree(v VertexID) int { return len(g.In(v)) }

// Edges returns all edges, by tail and then in out-list order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.NumEdges())
	for u := range g.NumVertices() {
		for _, v := range g.list(u) {
			es = append(es, Edge{VertexID(u), v})
		}
	}
	return es
}

// HasEdge reports whether at least one edge (u, v) exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	out, in := g.Out(u), g.In(v)
	// Scan the smaller adjacency list.
	if len(out) <= len(in) {
		for _, w := range out {
			if w == v {
				return true
			}
		}
		return false
	}
	for _, w := range in {
		if w == u {
			return true
		}
	}
	return false
}

// FlowNetworkTerminals returns the unique source and sink of g if g is an
// acyclic flow network (single source, single sink, acyclic). Otherwise it
// returns an error describing the first violated condition. Sources and
// sinks are counted from the list boundaries and acyclicity is checked
// on pooled scratch, so a graph that passes costs no allocation.
func (g *Graph) FlowNetworkTerminals() (source, sink VertexID, err error) {
	n := g.NumVertices()
	if n == 0 {
		return 0, 0, fmt.Errorf("dag: empty graph is not a flow network")
	}
	srcs, snks := 0, 0
	for v := n - 1; v >= 0; v-- {
		if g.csr[v] == g.csr[v+1] {
			sink, snks = VertexID(v), snks+1
		}
		if g.csr[n+v] == g.csr[n+v+1] {
			source, srcs = VertexID(v), srcs+1
		}
	}
	if srcs != 1 {
		return 0, 0, fmt.Errorf("dag: flow network needs exactly 1 source, found %d", srcs)
	}
	if snks != 1 {
		return 0, 0, fmt.Errorf("dag: flow network needs exactly 1 sink, found %d", snks)
	}
	if !g.IsAcyclic() {
		return 0, 0, fmt.Errorf("dag: graph contains a cycle")
	}
	return source, sink, nil
}

func (g *Graph) checkVertex(v VertexID) {
	if v < 0 || int(v) >= g.NumVertices() {
		panic(fmt.Sprintf("dag: vertex %d out of range [0,%d)", v, g.NumVertices()))
	}
}
