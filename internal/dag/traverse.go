package dag

import (
	"sync"

	"repro/internal/bitset"
)

// TopoSort returns a topological order of the vertices and true, or nil and
// false if the graph contains a cycle. The order is deterministic (Kahn's
// algorithm with a FIFO frontier seeded in increasing vertex order).
func (g *Graph) TopoSort() ([]VertexID, bool) {
	n := g.NumVertices()
	order := g.kahn(make([]int32, n), make([]VertexID, 0, n))
	if len(order) != n {
		return nil, false
	}
	return order, true
}

// kahn runs Kahn's algorithm with indeg (length n) as its in-degree
// scratch and the order as its own queue: the vertices still to visit
// are order[head:]. The order it returns holds every vertex exactly
// when the graph is acyclic.
func (g *Graph) kahn(indeg []int32, order []VertexID) []VertexID {
	for v := range indeg {
		if indeg[v] = int32(g.InDegree(VertexID(v))); indeg[v] == 0 {
			order = append(order, VertexID(v))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, w := range g.list(int(order[head])) {
			if indeg[w]--; indeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	return order
}

// topoScratch is the in-degree and queue scratch of an acyclicity
// check, pooled so that validating a run allocates nothing.
type topoScratch struct {
	indeg []int32
	order []VertexID
}

var topoPool = sync.Pool{New: func() any { return new(topoScratch) }}

// IsAcyclic reports whether the graph has no directed cycle. It runs
// on pooled scratch and allocates nothing once the pool is warm.
func (g *Graph) IsAcyclic() bool {
	sc := topoPool.Get().(*topoScratch)
	n := g.NumVertices()
	if cap(sc.indeg) < n {
		sc.indeg, sc.order = make([]int32, n), make([]VertexID, 0, n)
	}
	sc.order = g.kahn(sc.indeg[:n], sc.order[:0])
	ok := len(sc.order) == n
	topoPool.Put(sc)
	return ok
}

// ReachableBFS reports whether v is reachable from u by a breadth-first
// search. It allocates a visited set per call; use a Searcher to reuse state
// across many queries.
func (g *Graph) ReachableBFS(u, v VertexID) bool {
	s := NewSearcher(g)
	return s.ReachableBFS(u, v)
}

// ReachableDFS reports whether v is reachable from u by an iterative
// depth-first search.
func (g *Graph) ReachableDFS(u, v VertexID) bool {
	s := NewSearcher(g)
	return s.ReachableDFS(u, v)
}

// Searcher answers reachability queries by graph search, reusing its
// visited set and frontier between calls. It corresponds to the paper's
// BFS/DFS "labeling scheme" where labels are empty and all work happens at
// query time. A Searcher is not safe for concurrent use.
type Searcher struct {
	g       *Graph
	visited []uint32 // generation-stamped visited marks
	gen     uint32
	stack   []VertexID
}

// NewSearcher returns a Searcher over g.
func NewSearcher(g *Graph) *Searcher {
	return &Searcher{g: g, visited: make([]uint32, g.NumVertices())}
}

func (s *Searcher) begin() {
	s.gen++
	if s.gen == 0 { // wrapped: reset stamps
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.gen = 1
	}
	s.stack = s.stack[:0]
}

// ReachableBFS reports whether v is reachable from u.
func (s *Searcher) ReachableBFS(u, v VertexID) bool {
	if u == v {
		return true
	}
	s.begin()
	s.visited[u] = s.gen
	queue := s.stack
	queue = append(queue, u)
	for head := 0; head < len(queue); head++ {
		x := queue[head]
		for _, w := range s.g.list(int(x)) {
			if w == v {
				s.stack = queue[:0]
				return true
			}
			if s.visited[w] != s.gen {
				s.visited[w] = s.gen
				queue = append(queue, w)
			}
		}
	}
	s.stack = queue[:0]
	return false
}

// ReachableDFS reports whether v is reachable from u.
func (s *Searcher) ReachableDFS(u, v VertexID) bool {
	if u == v {
		return true
	}
	s.begin()
	s.visited[u] = s.gen
	stack := s.stack
	stack = append(stack, u)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range s.g.list(int(x)) {
			if w == v {
				s.stack = stack[:0]
				return true
			}
			if s.visited[w] != s.gen {
				s.visited[w] = s.gen
				stack = append(stack, w)
			}
		}
	}
	s.stack = stack[:0]
	return false
}

// Closure is a precomputed transitive closure: row i is the set of vertices
// reachable from i (including i itself).
type Closure struct {
	rows []*bitset.Set
}

// TransitiveClosure computes the full transitive closure of g. The graph
// must be acyclic. Cost is O(n*m/64) time and O(n²/8) bytes — this is the
// paper's TCM approach and is deliberately expensive for large graphs.
func (g *Graph) TransitiveClosure() (*Closure, bool) {
	order, ok := g.TopoSort()
	if !ok {
		return nil, false
	}
	n := g.NumVertices()
	rows := make([]*bitset.Set, n)
	// Process in reverse topological order: row(v) = {v} ∪ ⋃ row(w) for (v,w).
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		row := bitset.New(n)
		row.Set(int(v))
		for _, w := range g.list(int(v)) {
			row.Or(rows[w])
		}
		rows[v] = row
	}
	return &Closure{rows: rows}, true
}

// Reachable reports whether v is reachable from u (u reaches itself).
func (c *Closure) Reachable(u, v VertexID) bool {
	return c.rows[u].Test(int(v))
}

// CountReachable returns the number of vertices reachable from u, including u.
func (c *Closure) CountReachable(u VertexID) int {
	return c.rows[u].Count()
}

// NumVertices returns the number of rows in the closure.
func (c *Closure) NumVertices() int { return len(c.rows) }

// Row returns the reachability row of u. The caller must not modify it.
func (c *Closure) Row(u VertexID) *bitset.Set { return c.rows[u] }
