package label

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
)

func buildAll(t *testing.T, g *dag.Graph) []Labeling {
	t.Helper()
	var out []Labeling
	for _, s := range All() {
		l, err := s.Build(g)
		if err != nil {
			t.Fatalf("%s.Build: %v", s.Name(), err)
		}
		if l.Scheme() != s.Name() {
			t.Fatalf("labeling reports scheme %q, want %q", l.Scheme(), s.Name())
		}
		out = append(out, l)
	}
	return out
}

func TestSchemesOnDiamond(t *testing.T) {
	g := dag.FromEdges(4, []dag.Edge{{Tail: 0, Head: 1}, {Tail: 0, Head: 2}, {Tail: 1, Head: 3}, {Tail: 2, Head: 3}})
	cases := []struct {
		u, v dag.VertexID
		want bool
	}{
		{0, 3, true}, {3, 0, false}, {1, 2, false}, {2, 1, false},
		{0, 0, true}, {1, 3, true}, {2, 3, true}, {3, 3, true},
	}
	for _, l := range buildAll(t, g) {
		for _, c := range cases {
			if got := l.Reachable(c.u, c.v); got != c.want {
				t.Errorf("%s.Reachable(%d,%d) = %v, want %v", l.Scheme(), c.u, c.v, got, c.want)
			}
		}
	}
}

func TestSchemesRejectCycles(t *testing.T) {
	g := dag.FromEdges(2, []dag.Edge{{Tail: 0, Head: 1}, {Tail: 1, Head: 0}})
	for _, s := range []Scheme{TCM{}, Interval{}, Chain{}} {
		if _, err := s.Build(g); err == nil {
			t.Errorf("%s accepted a cyclic graph", s.Name())
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"TCM", "BFS", "DFS", "Interval", "Chain"} {
		s, err := ByName(name)
		if err != nil || s.Name() != name {
			t.Errorf("ByName(%q) = %v, %v", name, s, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestIndexBitsAccounting(t *testing.T) {
	g := dag.RandomDAG(rand.New(rand.NewSource(1)), 50, 120)
	for _, l := range buildAll(t, g) {
		bits := l.IndexBits()
		switch l.Scheme() {
		case "BFS", "DFS":
			if bits != 0 {
				t.Errorf("%s should report 0 index bits, got %d", l.Scheme(), bits)
			}
		case "TCM":
			if bits != 50*50 {
				t.Errorf("TCM bits = %d, want 2500", bits)
			}
		default:
			if bits <= 0 {
				t.Errorf("%s reports nonpositive index bits", l.Scheme())
			}
		}
	}
}

func TestIntervalNormalize(t *testing.T) {
	// Over integer postorder numbers adjacent intervals merge exactly:
	// {1,2}∪{3,4}∪{5,7}∪{6,9}∪{10,12} covers every integer in 1..12.
	got := normalize([]ival{{5, 7}, {1, 2}, {3, 4}, {10, 12}, {6, 9}})
	want := []ival{{1, 12}}
	if len(got) != len(want) {
		t.Fatalf("normalize = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("normalize = %v, want %v", got, want)
		}
	}
	if out := normalize(nil); len(out) != 0 {
		t.Error("normalize(nil) should be empty")
	}
}

// Property: every scheme agrees with the transitive closure on random DAGs.
func TestQuickAllSchemesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		g := dag.RandomDAG(rng, n, 3*n)
		closure, _ := g.TransitiveClosure()
		var labelings []Labeling
		for _, s := range All() {
			l, err := s.Build(g)
			if err != nil {
				return false
			}
			labelings = append(labelings, l)
		}
		for q := 0; q < 300; q++ {
			u := dag.VertexID(rng.Intn(n))
			v := dag.VertexID(rng.Intn(n))
			want := closure.Reachable(u, v)
			for _, l := range labelings {
				if l.Reachable(u, v) != want {
					t.Logf("seed %d: %s disagrees on (%d,%d)", seed, l.Scheme(), u, v)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: schemes agree on flow networks too (the shape specifications
// actually take).
func TestQuickSchemesOnFlowNetworks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(80)
		g := dag.RandomFlowNetwork(rng, n, 2*n)
		closure, _ := g.TransitiveClosure()
		for _, s := range All() {
			l, err := s.Build(g)
			if err != nil {
				return false
			}
			for q := 0; q < 100; q++ {
				u := dag.VertexID(rng.Intn(n))
				v := dag.VertexID(rng.Intn(n))
				if l.Reachable(u, v) != closure.Reachable(u, v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	g := dag.RandomFlowNetwork(rand.New(rand.NewSource(3)), 200, 400)
	for _, s := range All() {
		b.Run(s.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Build(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkQuery(b *testing.B) {
	g := dag.RandomFlowNetwork(rand.New(rand.NewSource(4)), 200, 400)
	n := g.NumVertices()
	for _, s := range All() {
		l, err := s.Build(g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := dag.VertexID(i % n)
				v := dag.VertexID((i * 13) % n)
				l.Reachable(u, v)
			}
		})
	}
}
