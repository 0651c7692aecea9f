package dag

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLongestPathChain(t *testing.T) {
	g := FromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	w := []int64{5, 1, 7, 2}
	total, path, ok := g.LongestPath(func(v VertexID) int64 { return w[v] })
	if !ok || total != 15 {
		t.Fatalf("total = %d ok=%v, want 15", total, ok)
	}
	if len(path) != 4 || path[0] != 0 || path[3] != 3 {
		t.Fatalf("path = %v", path)
	}
}

func TestLongestPathPicksHeavyBranch(t *testing.T) {
	// 0 -> {1 (weight 100), 2 (weight 1)} -> 3
	g := diamond()
	w := []int64{1, 100, 1, 1}
	total, path, ok := g.LongestPath(func(v VertexID) int64 { return w[v] })
	if !ok || total != 102 {
		t.Fatalf("total = %d, want 102", total)
	}
	if len(path) != 3 || path[1] != 1 {
		t.Fatalf("path should go through vertex 1: %v", path)
	}
}

func TestLongestPathDegenerate(t *testing.T) {
	if _, _, ok := FromEdges(0, nil).LongestPath(func(VertexID) int64 { return 1 }); ok {
		t.Error("empty graph should fail")
	}
	cyc := FromEdges(2, []Edge{{0, 1}, {1, 0}})
	if _, _, ok := cyc.LongestPath(func(VertexID) int64 { return 1 }); ok {
		t.Error("cyclic graph should fail")
	}
	// Single vertex: path of itself.
	one := FromEdges(1, nil)
	total, path, ok := one.LongestPath(func(VertexID) int64 { return 9 })
	if !ok || total != 9 || len(path) != 1 {
		t.Errorf("singleton: total=%d path=%v", total, path)
	}
}

// Property: the returned weight equals the weight of the returned path,
// the path is a real path, and no single vertex beats it.
func TestQuickLongestPathConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		g := RandomDAG(rng, n, 2*n)
		w := make([]int64, n)
		for i := range w {
			w[i] = int64(rng.Intn(100))
		}
		total, path, ok := g.LongestPath(func(v VertexID) int64 { return w[v] })
		if !ok || len(path) == 0 {
			return false
		}
		var sum int64
		for i, v := range path {
			sum += w[v]
			if i > 0 && !g.HasEdge(path[i-1], v) {
				return false
			}
		}
		if sum != total {
			return false
		}
		for v := 0; v < n; v++ {
			if w[v] > total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
