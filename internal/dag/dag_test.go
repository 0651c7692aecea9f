package dag

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// diamond builds 0 -> {1,2} -> 3.
func diamond() *Graph {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	return g
}

func TestAddAndDegrees(t *testing.T) {
	g := diamond()
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %d vertices %d edges, want 4/4", g.NumVertices(), g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.InDegree(3) != 2 {
		t.Fatalf("degrees wrong: out(0)=%d in(3)=%d", g.OutDegree(0), g.InDegree(3))
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) || g.HasEdge(1, 2) {
		t.Fatal("HasEdge gives wrong answers")
	}
	v := g.AddVertex()
	if v != 4 || g.NumVertices() != 5 {
		t.Fatalf("AddVertex returned %d", v)
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := diamond()
	e1 := g.Edges()
	e2 := g.Edges()
	if len(e1) != 4 {
		t.Fatalf("Edges len = %d", len(e1))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("Edges order not deterministic")
		}
	}
}

func TestVertexRangePanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Error("AddEdge out of range did not panic")
		}
	}()
	g.AddEdge(0, 5)
}

func TestTopoSort(t *testing.T) {
	g := diamond()
	order, ok := g.TopoSort()
	if !ok {
		t.Fatal("diamond reported cyclic")
	}
	pos := make(map[VertexID]int)
	for i, v := range order {
		pos[v] = i
	}
	for _, e := range g.Edges() {
		if pos[e.Tail] >= pos[e.Head] {
			t.Fatalf("edge %v violates topo order %v", e, order)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 0)
	if _, ok := g.TopoSort(); ok {
		t.Fatal("cycle not detected")
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic true for a cycle")
	}
}

func TestReachability(t *testing.T) {
	g := diamond()
	cases := []struct {
		u, v VertexID
		want bool
	}{
		{0, 3, true}, {0, 0, true}, {1, 2, false}, {2, 1, false},
		{3, 0, false}, {1, 3, true}, {0, 1, true},
	}
	s := NewSearcher(g)
	for _, c := range cases {
		if got := g.ReachableBFS(c.u, c.v); got != c.want {
			t.Errorf("ReachableBFS(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
		if got := g.ReachableDFS(c.u, c.v); got != c.want {
			t.Errorf("ReachableDFS(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
		if got := s.ReachableBFS(c.u, c.v); got != c.want {
			t.Errorf("Searcher.ReachableBFS(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestSearcherGenerationWrap(t *testing.T) {
	g := diamond()
	s := NewSearcher(g)
	s.gen = ^uint32(0) - 1 // force a wrap soon
	for i := 0; i < 5; i++ {
		if !s.ReachableBFS(0, 3) {
			t.Fatal("reachability lost across generation wrap")
		}
		if s.ReachableDFS(1, 2) {
			t.Fatal("false positive across generation wrap")
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	g := diamond()
	c, ok := g.TransitiveClosure()
	if !ok {
		t.Fatal("closure failed on DAG")
	}
	if !c.Reachable(0, 3) || c.Reachable(1, 2) || !c.Reachable(2, 2) {
		t.Fatal("closure answers wrong")
	}
	if c.CountReachable(0) != 4 {
		t.Fatalf("CountReachable(0) = %d, want 4", c.CountReachable(0))
	}
	if c.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", c.NumVertices())
	}
	cyc := New(2)
	cyc.AddEdge(0, 1)
	cyc.AddEdge(1, 0)
	if _, ok := cyc.TransitiveClosure(); ok {
		t.Fatal("closure succeeded on cyclic graph")
	}
}

func TestFlowNetworkTerminals(t *testing.T) {
	g := diamond()
	s, k, err := g.FlowNetworkTerminals()
	if err != nil || s != 0 || k != 3 {
		t.Fatalf("terminals = %d,%d err %v", s, k, err)
	}
	twoSources := New(3)
	twoSources.AddEdge(0, 2)
	twoSources.AddEdge(1, 2)
	if _, _, err := twoSources.FlowNetworkTerminals(); err == nil {
		t.Fatal("two sources accepted")
	}
	if _, _, err := New(0).FlowNetworkTerminals(); err == nil {
		t.Fatal("empty graph accepted")
	}
	cyc := New(3)
	cyc.AddEdge(0, 1)
	cyc.AddEdge(1, 2)
	cyc.AddEdge(2, 1)
	if _, _, err := cyc.FlowNetworkTerminals(); err == nil {
		t.Fatal("cyclic graph accepted as flow network")
	}
}

func TestClone(t *testing.T) {
	g := diamond()
	c := g.Clone()
	c.AddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Fatal("clone mutation leaked")
	}
	if g.NumEdges() != 4 || c.NumEdges() != 5 {
		t.Fatal("edge counts wrong after clone mutation")
	}
}

func TestRandomDAGAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20; i++ {
		n := 2 + rng.Intn(60)
		g := RandomDAG(rng, n, 3*n)
		if !g.IsAcyclic() {
			t.Fatalf("RandomDAG produced a cycle (n=%d)", n)
		}
	}
}

func TestRandomFlowNetworkStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		n := 2 + rng.Intn(80)
		g := RandomFlowNetwork(rng, n, 2*n)
		s, k, err := g.FlowNetworkTerminals()
		if err != nil {
			t.Fatalf("not a flow network (n=%d): %v", n, err)
		}
		// Every vertex lies on a source→sink path.
		c, _ := g.TransitiveClosure()
		for v := 0; v < n; v++ {
			if !c.Reachable(s, VertexID(v)) || !c.Reachable(VertexID(v), k) {
				t.Fatalf("vertex %d not on a source-sink path", v)
			}
		}
	}
}

// Property: BFS, DFS and the transitive closure agree on random DAGs.
func TestQuickReachabilityAgreement(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := RandomDAG(rng, n, 2*n)
		c, ok := g.TransitiveClosure()
		if !ok {
			return false
		}
		s := NewSearcher(g)
		for q := 0; q < 200; q++ {
			u := VertexID(rng.Intn(n))
			v := VertexID(rng.Intn(n))
			want := c.Reachable(u, v)
			if s.ReachableBFS(u, v) != want || s.ReachableDFS(u, v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: reachability is transitive and respects topological order.
func TestQuickClosureTransitivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := RandomDAG(rng, n, 2*n)
		c, _ := g.TransitiveClosure()
		for q := 0; q < 100; q++ {
			u := VertexID(rng.Intn(n))
			v := VertexID(rng.Intn(n))
			w := VertexID(rng.Intn(n))
			if c.Reachable(u, v) && c.Reachable(v, w) && !c.Reachable(u, w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTransitiveClosure1000(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	g := RandomDAG(rng, 1000, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.TransitiveClosure(); !ok {
			b.Fatal("cycle")
		}
	}
}

func BenchmarkSearcherBFS(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	g := RandomDAG(rng, 2000, 6000)
	s := NewSearcher(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := VertexID(i % 2000)
		v := VertexID((i * 7) % 2000)
		s.ReachableBFS(u, v)
	}
}

func TestFromEdgesMatchesAddEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		var edges []Edge
		want := New(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			e := Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
			edges = append(edges, e)
			want.AddEdge(e.Tail, e.Head)
		}
		got := FromEdges(n, edges)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("FromEdges(%d, %v) = %+v, want %+v", n, edges, got, want)
		}
		// Adjacency lists are carved from one array; growing one must
		// not overwrite its neighbour.
		got.AddEdge(0, VertexID(n-1))
		want.AddEdge(0, VertexID(n-1))
		if !reflect.DeepEqual(got.Edges(), want.Edges()) {
			t.Fatalf("after AddEdge: %v, want %v", got.Edges(), want.Edges())
		}
	}
}
