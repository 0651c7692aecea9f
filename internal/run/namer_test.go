package run

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/spec"
	"repro/internal/workload"
)

// checkNamer fails t unless every vertex's name is r.NameOf's and each
// name resolves back. Names are module name plus occurrence subscript,
// so modules whose names extend each other can collide (occurrence 71
// of v4 and occurrence 1 of v47 are both "v471"); a colliding name
// resolves to the last vertex that bears it.
func checkNamer(t *testing.T, r *Run) {
	t.Helper()
	nm := NewNamer(r)
	last := make(map[string]dag.VertexID)
	for v := 0; v < r.NumVertices(); v++ {
		vid := dag.VertexID(v)
		want := r.NameOf(vid)
		if got := nm.Name(vid); got != want {
			t.Fatalf("Name(%d) = %q, want %q", v, got, want)
		}
		last[want] = vid
	}
	for name, want := range last {
		if back, ok := nm.Vertex(name); !ok || back != want {
			t.Fatalf("Vertex(%q) = %d,%v, want %d", name, back, ok, want)
		}
		if back, ok := nm.VertexBytes([]byte(name)); !ok || back != want {
			t.Fatalf("VertexBytes(%q) = %d,%v, want %d", name, back, ok, want)
		}
	}
	if _, ok := nm.Vertex("nonexistent99"); ok {
		t.Error("Vertex found a nonexistent name")
	}
}

func TestNamerMatchesNameOf(t *testing.T) {
	r, _ := GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(1)), 400)
	checkNamer(t, r)
	// QBLAST stand-in modules are v0..v57: at 5000 vertices some names
	// collide by prefix.
	for _, size := range []int{1000, 5000} {
		r, _ := GenerateSized(qblast(t), rand.New(rand.NewSource(int64(size))), size)
		checkNamer(t, r)
	}
}

func TestNamerPrefixCollision(t *testing.T) {
	s := &spec.Spec{Graph: dag.New(2), Names: []spec.ModuleName{"v4", "v47"}}
	origin := make([]dag.VertexID, 77)
	origin[75], origin[76] = 1, 1 // 75 occurrences of v4, then v47 twice
	r := &Run{Spec: s, Graph: dag.New(len(origin)), Origin: origin}
	checkNamer(t, r)
	if v, _ := NewNamer(r).Vertex("v471"); v != 75 {
		t.Fatalf(`Vertex("v471") = %d, want 75 (the later of the two)`, v)
	}
}

func BenchmarkNamerLookup(b *testing.B) {
	s := spec.PaperSpec()
	r, _ := GenerateSized(s, rand.New(rand.NewSource(2)), 5000)
	nm := NewNamer(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nm.Name(dag.VertexID(i % r.NumVertices()))
	}
}

func TestNamerAllocsFlat(t *testing.T) {
	sp := qblast(t)
	allocs := func(size int) float64 {
		r, _ := GenerateSized(sp, rand.New(rand.NewSource(3)), size)
		return testing.AllocsPerRun(5, func() { NewNamer(r) })
	}
	// No allocation per vertex: only the index map's own tables (one
	// per ~900 entries) grow with the run.
	small, large := allocs(200), allocs(4000)
	if large-small > (4000-200)/100 {
		t.Fatalf("NewNamer allocs grow with the run: %v at 200 vertices, %v at 4000", small, large)
	}
}

func qblast(t testing.TB) *spec.Spec {
	s, err := workload.StandIn("QBLAST", 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func BenchmarkNewNamer(b *testing.B) {
	r, _ := GenerateSized(qblast(b), rand.New(rand.NewSource(2)), 1000)
	b.ReportAllocs()
	for b.Loop() {
		NewNamer(r)
	}
}
