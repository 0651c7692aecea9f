package run

import (
	"bytes"
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

// FuzzNamerOracle grows a Namer by Add over a specification whose
// module names extend each other (v, v4, v47, 47), so names collide
// across modules, and checks it against a map of last vertices built
// from Run.NameOf: every name, every resolved name, and an arbitrary
// lookup, which must resolve only when the oracle knows it (a leading
// zero or an unknown module resolves to nothing).
func FuzzNamerOracle(f *testing.F) {
	s := &spec.Spec{Graph: dag.New(4), Names: []spec.ModuleName{"v", "v4", "v47", "47"}}
	collide := append(bytes.Repeat([]byte{1}, 71), 2, 0, 3, 3)
	for _, lookup := range []string{"v471", "v47", "v41", "v1", "471", "4711", "v0471", "v40", "v4", "v", "", "v01", "0"} {
		f.Add(collide, lookup)
	}
	f.Add([]byte{0, 1, 2, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, "v10")
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, "4710")
	f.Fuzz(func(t *testing.T, data []byte, lookup string) {
		if len(data) > 400 {
			data = data[:400]
		}
		origin := make([]dag.VertexID, len(data))
		for i, b := range data {
			origin[i] = dag.VertexID(b % 4)
		}
		r := &Run{Spec: s, Graph: dag.New(len(origin)), Origin: origin}
		nm := NewNamerFromOrigins(s, nil)
		last := make(map[string]dag.VertexID)
		for v, o := range origin {
			if got := nm.Add(o); got != dag.VertexID(v) {
				t.Fatalf("Add #%d returned vertex %d", v, got)
			}
			last[r.NameOf(dag.VertexID(v))] = dag.VertexID(v)
		}
		if nm.Len() != len(origin) {
			t.Fatalf("Len = %d, want %d", nm.Len(), len(origin))
		}
		for v := range origin {
			if got, want := nm.Name(dag.VertexID(v)), r.NameOf(dag.VertexID(v)); got != want {
				t.Fatalf("Name(%d) = %q, want %q", v, got, want)
			}
		}
		for name, want := range last {
			if got, ok := nm.Vertex(name); !ok || got != want {
				t.Fatalf("Vertex(%q) = %d,%v, want %d", name, got, ok, want)
			}
		}
		want, wantOK := last[lookup]
		if got, ok := nm.Vertex(lookup); ok != wantOK || got != want {
			t.Fatalf("Vertex(%q) = %d,%v, want %d,%v", lookup, got, ok, want, wantOK)
		}
		if got, ok := nm.VertexBytes([]byte(lookup)); ok != wantOK || got != want {
			t.Fatalf("VertexBytes(%q) = %d,%v, want %d,%v", lookup, got, ok, want, wantOK)
		}
	})
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
