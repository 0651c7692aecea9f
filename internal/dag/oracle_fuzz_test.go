package dag

import (
	"slices"
	"testing"
)

// FuzzGraphOracle builds a graph with FromEdges and checks it against
// adjacency lists built the obvious way, by appending each edge to its
// tail's out-list and its head's in-list in the order given: every Out
// and In list (contents and order), the degrees, the Edges order,
// HasEdge on every vertex pair, TopoSort (Kahn's algorithm over the
// reference lists), and the panics on an out-of-range vertex. Self
// loops and parallel edges are part of the input space.
func FuzzGraphOracle(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0, 0})
	f.Add(uint8(4), []byte{0, 1, 0, 2, 1, 3, 2, 3})
	f.Add(uint8(3), []byte{0, 1, 0, 1, 1, 2, 2, 2, 2, 0})
	f.Add(uint8(5), []byte{4, 0, 3, 0, 2, 4, 1, 0, 0, 1, 4, 3})
	f.Fuzz(func(t *testing.T, nb uint8, data []byte) {
		n := int(nb % 32)
		var edges []Edge
		for i := 0; n > 0 && i+1 < len(data) && len(edges) < 128; i += 2 {
			edges = append(edges, Edge{VertexID(int(data[i]) % n), VertexID(int(data[i+1]) % n)})
		}
		out, in := make([][]VertexID, n), make([][]VertexID, n)
		for _, e := range edges {
			out[e.Tail] = append(out[e.Tail], e.Head)
			in[e.Head] = append(in[e.Head], e.Tail)
		}
		g := FromEdges(n, edges)

		if g.NumVertices() != n || g.NumEdges() != len(edges) {
			t.Fatalf("%d vertices, %d edges; want %d, %d", g.NumVertices(), g.NumEdges(), n, len(edges))
		}
		var wantEdges []Edge
		for u := range n {
			v := VertexID(u)
			if !slices.Equal(g.Out(v), out[u]) || !slices.Equal(g.In(v), in[u]) {
				t.Fatalf("vertex %d: Out %v In %v, want %v %v", u, g.Out(v), g.In(v), out[u], in[u])
			}
			if g.OutDegree(v) != len(out[u]) || g.InDegree(v) != len(in[u]) {
				t.Fatalf("vertex %d: degrees %d/%d, want %d/%d", u, g.OutDegree(v), g.InDegree(v), len(out[u]), len(in[u]))
			}
			for _, w := range out[u] {
				wantEdges = append(wantEdges, Edge{v, w})
			}
			for w := range n {
				if got, want := g.HasEdge(v, VertexID(w)), slices.Contains(out[u], VertexID(w)); got != want {
					t.Fatalf("HasEdge(%d, %d) = %v, want %v", u, w, got, want)
				}
			}
		}
		if got := g.Edges(); !slices.Equal(got, wantEdges) {
			t.Fatalf("Edges() = %v, want %v", got, wantEdges)
		}
		// A list cannot be grown into its neighbour.
		if n > 0 {
			l := g.Out(0)
			_ = append(l, VertexID(n-1))
			if !slices.Equal(g.Out(0), out[0]) || (n > 1 && !slices.Equal(g.Out(1), out[1])) || !slices.Equal(g.In(0), in[0]) {
				t.Fatal("appending to Out(0) changed the graph")
			}
		}

		order, ok := g.TopoSort()
		wantOrder, wantOK := kahn(out, in)
		if ok != wantOK || !slices.Equal(order, wantOrder) {
			t.Fatalf("TopoSort() = %v, %v; want %v, %v", order, ok, wantOrder, wantOK)
		}

		for _, bad := range []VertexID{-1, VertexID(n)} {
			mustPanic(t, "Out", func() { g.Out(bad) })
			mustPanic(t, "In", func() { g.In(bad) })
			mustPanic(t, "OutDegree", func() { g.OutDegree(bad) })
			mustPanic(t, "InDegree", func() { g.InDegree(bad) })
			mustPanic(t, "HasEdge", func() { g.HasEdge(bad, 0) })
			mustPanic(t, "HasEdge", func() { g.HasEdge(0, bad) })
			mustPanic(t, "FromEdges", func() { FromEdges(n, append(slices.Clip(edges), Edge{0, bad})) })
			mustPanic(t, "FromEdges", func() { FromEdges(n, append(slices.Clip(edges), Edge{bad, 0})) })
		}
	})
}

// kahn is Kahn's algorithm over plain adjacency lists, with a FIFO queue
// seeded in increasing vertex order.
func kahn(out, in [][]VertexID) ([]VertexID, bool) {
	indeg := make([]int, len(in))
	var queue []VertexID
	for v := range in {
		if indeg[v] = len(in[v]); indeg[v] == 0 {
			queue = append(queue, VertexID(v))
		}
	}
	var order []VertexID
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range out[v] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != len(in) {
		return nil, false
	}
	return order, true
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s on a vertex out of range did not panic", what)
		}
	}()
	f()
}
