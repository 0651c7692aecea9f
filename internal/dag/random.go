package dag

import "math/rand"

// RandomDAG generates a random DAG with n vertices and approximately m
// edges, oriented along a random permutation so the result is acyclic by
// construction. Duplicate edges are suppressed, so the realized edge count
// can be slightly below m on dense requests.
func RandomDAG(rng *rand.Rand, n, m int) *Graph {
	if n < 2 {
		return FromEdges(n, nil)
	}
	perm := rng.Perm(n)
	seen := make(map[Edge]bool, m)
	var edges []Edge
	for tries := 0; len(edges) < m && tries < 20*m+100; tries++ {
		i := rng.Intn(n - 1)
		j := i + 1 + rng.Intn(n-i-1)
		e := Edge{VertexID(perm[i]), VertexID(perm[j])}
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return FromEdges(n, edges)
}

// RandomFlowNetwork generates a random acyclic flow network (single source,
// single sink, every vertex on a source→sink path) with n >= 2 vertices and
// approximately m edges.
func RandomFlowNetwork(rng *rand.Rand, n, m int) *Graph {
	if n < 2 {
		return FromEdges(n, nil)
	}
	// Vertex 0 is the source and n-1 the sink; interior vertices are ordered
	// by ID, giving acyclicity. First thread a random spanning structure so
	// every interior vertex has an in-edge from a smaller vertex and an
	// out-edge to a larger one.
	var edges []Edge
	for v := 1; v < n-1; v++ {
		edges = append(edges, Edge{VertexID(rng.Intn(v)), VertexID(v)})
	}
	for v := n - 2; v >= 1; v-- {
		w := v + 1 + rng.Intn(n-1-v)
		edges = append(edges, Edge{VertexID(v), VertexID(w)})
	}
	if n == 2 {
		return FromEdges(n, []Edge{{0, 1}})
	}
	seen := make(map[Edge]bool, m)
	for _, e := range edges {
		seen[e] = true
	}
	for tries := 0; len(edges) < m && tries < 20*m+100; tries++ {
		u := rng.Intn(n - 1)
		v := u + 1 + rng.Intn(n-1-u)
		e := Edge{VertexID(u), VertexID(v)}
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
	}
	return FromEdges(n, edges)
}
