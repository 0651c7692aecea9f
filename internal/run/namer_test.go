package run

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
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
	b := spec.NewBuilder()
	b.Chain("v4", "v47")
	s := b.MustBuild()
	origin := make([]dag.VertexID, 77)
	origin[75], origin[76] = 1, 1 // 75 occurrences of v4, then v47 twice
	r := &Run{Spec: s, Graph: dag.FromEdges(len(origin), nil), Origin: origin}
	checkNamer(t, r)
	if v, _ := NewNamer(r).Vertex("v471"); v != 75 {
		t.Fatalf(`Vertex("v471") = %d, want 75 (the later of the two)`, v)
	}
}

// checkQuotedNames fails t unless AppendQuotedNames writes the names of
// vs as AppendName renders them, each quoted, joined by commas, after
// whatever dst held.
func checkQuotedNames(t *testing.T, nm *Namer, vs []dag.VertexID) {
	t.Helper()
	want := []byte("x")
	for i, v := range vs {
		if i > 0 {
			want = append(want, ',')
		}
		want = append(nm.AppendName(append(want, '"'), v), '"')
	}
	// A dst with no spare capacity, so the writer sizes the body itself.
	if got := nm.AppendQuotedNames([]byte("x"), vs); !bytes.Equal(got, want) {
		t.Fatalf("AppendQuotedNames(x, %v) = %q, want %q", vs, got, want)
	}
}

// FuzzNamerOracle names a run over a specification whose module names
// extend each other (v, v4, v47, 47), so names collide across modules,
// twice: grown by Add, and built in one call by NewNamerFromOrigins. It
// checks both against a map of last vertices built from Run.NameOf:
// every name (Name and AppendName), every resolved name, and an
// arbitrary lookup, which must resolve only when the oracle knows it (a
// leading zero, an overlong rank or an unknown module resolves to
// nothing). It also checks the list writer, AppendQuotedNames, against
// AppendName's names quoted and joined by commas. The built namer's
// columns must equal the grown namer's, and stay equal when both name
// one more vertex by Add.
func FuzzNamerOracle(f *testing.F) {
	b := spec.NewBuilder()
	b.Chain("v", "v4", "v47", "47")
	s := b.MustBuild()
	collide := append(bytes.Repeat([]byte{1}, 71), 2, 0, 3, 3)
	for _, lookup := range []string{"v471", "v47", "v41", "v1", "471", "4711", "v0471", "v40", "v4", "v", "", "v01", "0",
		"v4700000000001", "v4799999999999999999999", "1234", "99999999999"} {
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
		r := &Run{Spec: s, Graph: dag.FromEdges(len(origin), nil), Origin: origin}
		// The list writer's input: every vertex whose byte has bit 2
		// clear (the origin reads bits 0 and 1), in ID order like a cone.
		var vs []dag.VertexID
		for v, b := range data {
			if b&4 == 0 {
				vs = append(vs, dag.VertexID(v))
			}
		}
		grown := NewNamerFromOrigins(s, nil)
		last := make(map[string]dag.VertexID)
		for v, o := range origin {
			if got := grown.Add(o); got != dag.VertexID(v) {
				t.Fatalf("Add #%d returned vertex %d", v, got)
			}
			last[r.NameOf(dag.VertexID(v))] = dag.VertexID(v)
		}
		built := NewNamerFromOrigins(s, origin)
		sameColumns(t, built, grown)
		for _, nm := range []*Namer{grown, built} {
			if nm.Len() != len(origin) {
				t.Fatalf("Len = %d, want %d", nm.Len(), len(origin))
			}
			for v := range origin {
				want := r.NameOf(dag.VertexID(v))
				if got := nm.Name(dag.VertexID(v)); got != want {
					t.Fatalf("Name(%d) = %q, want %q", v, got, want)
				}
				if got := nm.AppendName([]byte("x"), dag.VertexID(v)); string(got) != "x"+want {
					t.Fatalf("AppendName(x, %d) = %q, want %q", v, got, "x"+want)
				}
			}
			for name, want := range last {
				if got, ok := nm.Vertex(name); !ok || got != want {
					t.Fatalf("Vertex(%q) = %d,%v, want %d", name, got, ok, want)
				}
				if got, ok := nm.VertexBytes([]byte(name)); !ok || got != want {
					t.Fatalf("VertexBytes(%q) = %d,%v, want %d", name, got, ok, want)
				}
			}
			checkQuotedNames(t, nm, vs)
			want, wantOK := last[lookup]
			if got, ok := nm.Vertex(lookup); ok != wantOK || got != want {
				t.Fatalf("Vertex(%q) = %d,%v, want %d,%v", lookup, got, ok, want, wantOK)
			}
			if got, ok := nm.VertexBytes([]byte(lookup)); ok != wantOK || got != want {
				t.Fatalf("VertexBytes(%q) = %d,%v, want %d,%v", lookup, got, ok, want, wantOK)
			}
		}
		next := dag.VertexID(len(lookup) % 4)
		if g, b := grown.Add(next), built.Add(next); g != b {
			t.Fatalf("Add(%d) = %d on the built namer, %d on the grown one", next, b, g)
		}
		sameColumns(t, built, grown)
	})
}

// sameColumns fails t unless two namers hold the same columns and
// lookup bounds.
func sameColumns(t *testing.T, got, want *Namer) {
	t.Helper()
	switch {
	case !slices.Equal(got.origin, want.origin):
		t.Fatalf("origin column %v, want %v", got.origin, want.origin)
	case !slices.Equal(got.rank, want.rank):
		t.Fatalf("rank column %v, want %v", got.rank, want.rank)
	case !slices.EqualFunc(got.byOrigin, want.byOrigin, slices.Equal[[]dag.VertexID]):
		t.Fatalf("per-origin lists %v, want %v", got.byOrigin, want.byOrigin)
	case got.maxRank != want.maxRank || got.maxLen != want.maxLen || got.lead != want.lead:
		t.Fatalf("lookup bounds (rank %d, length %d), want (%d, %d)", got.maxRank, got.maxLen, want.maxRank, want.maxLen)
	}
}

// TestNamerLeavesOriginsUnwritten: a namer built from a caller's origin
// column shares it and writes none of its memory, neither when built
// nor when a later Add names more vertices, even with capacity spare
// past the column's end.
func TestNamerLeavesOriginsUnwritten(t *testing.T) {
	r, _ := GenerateSized(qblast(t), rand.New(rand.NewSource(6)), 300)
	n := r.NumVertices()
	buf := slices.Repeat([]dag.VertexID{-1}, n+16)
	origin := buf[:n]
	copy(origin, r.Origin)
	saved := slices.Clone(buf)
	nm := NewNamerFromOrigins(r.Spec, origin)
	if &nm.Origins()[0] != &origin[0] {
		t.Fatal("NewNamerFromOrigins copied the origin column")
	}
	for i := range 16 {
		nm.Add(r.Origin[i])
	}
	if !slices.Equal(buf, saved) {
		t.Fatal("naming vertices wrote the caller's origin memory")
	}
	grown := NewNamerFromOrigins(r.Spec, nil)
	for _, o := range append(r.Origin[:n:n], r.Origin[:16]...) {
		grown.Add(o)
	}
	sameColumns(t, nm, grown)
}

// TestAppendQuotedNamesRanks checks the list writer at every rank
// width, across each digit boundary up to the int32 limit, for short
// and long module names.
func TestAppendQuotedNamesRanks(t *testing.T) {
	ranks := []int32{1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001, 9999, 10000, 10001, 99999, 100000,
		999999, 1000000, 9999999, 10000000, 99999999, 100000000, 999999999, 1000000000,
		math.MaxInt32 - 1, math.MaxInt32}
	for _, modules := range [][]spec.ModuleName{{"a", "bcdefgh"}, {"a", "bcdefghi"}, {"a_long_module_name", "b"}} {
		b := spec.NewBuilder()
		b.Chain(modules...)
		s := b.MustBuild()
		origin := make([]dag.VertexID, len(ranks))
		for v := range origin {
			origin[v] = dag.VertexID(v % 2)
		}
		nm := NewNamerFromOrigins(s, origin)
		// Ranks this large would take billions of vertices: set them.
		copy(nm.rank, ranks)
		nm.maxRank = math.MaxInt32
		all := allIDs(len(ranks))
		checkQuotedNames(t, nm, all)
		checkQuotedNames(t, nm, nil)
		for v := range all {
			checkQuotedNames(t, nm, all[v:v+1])
			if got := nm.Name(dag.VertexID(v)); got != string(modules[v%2])+strconv.Itoa(int(ranks[v])) {
				t.Fatalf("Name(%d) = %q with rank %d", v, got, ranks[v])
			}
		}
		slices.Reverse(all)
		checkQuotedNames(t, nm, all)
	}
}

func allIDs(n int) []dag.VertexID {
	vs := make([]dag.VertexID, n)
	for i := range vs {
		vs[i] = dag.VertexID(i)
	}
	return vs
}

// BenchmarkNamerLookup resolves the shuffled names of a 5000-vertex
// QBLAST stand-in run, one in eight lookups an all-digit miss: /batch
// tries a quoted "1234" ref as a name before reading it as an ID.
func BenchmarkNamerLookup(b *testing.B) {
	r, _ := GenerateSized(qblast(b), rand.New(rand.NewSource(2)), 5000)
	nm := NewNamer(r)
	var keys [][]byte
	for v := 0; v < r.NumVertices(); v++ {
		keys = append(keys, []byte(nm.Name(dag.VertexID(v))))
		if v%7 == 0 {
			keys = append(keys, strconv.AppendInt(nil, int64(v), 10))
		}
	}
	rand.New(rand.NewSource(3)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		nm.VertexBytes(keys[i%len(keys)])
		i++
	}
}

func BenchmarkNamerAppendName(b *testing.B) {
	r, _ := GenerateSized(qblast(b), rand.New(rand.NewSource(2)), 5000)
	nm := NewNamer(r)
	var buf []byte
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		buf = nm.AppendName(buf[:0], dag.VertexID(i%nm.Len()))
		i++
	}
}

func TestNamerAllocsFlat(t *testing.T) {
	sp := qblast(t)
	allocs := func(size int) float64 {
		r, _ := GenerateSized(sp, rand.New(rand.NewSource(3)), size)
		return testing.AllocsPerRun(5, func() { NewNamer(r) })
	}
	if small, large := allocs(200), allocs(4000); small != large {
		t.Fatalf("NewNamer allocs grow with the run: %v at 200 vertices, %v at 4000", small, large)
	}
}

// TestNamerHeapPerVertex pins a namer's size: its rank column and its
// per-origin lists, 4 B/vertex each, with no name text, no name index
// and no copy of the origin column, which it shares with the caller
// (8.8 B/vertex measured).
func TestNamerHeapPerVertex(t *testing.T) {
	const n, runs = 5000, 20
	r, _ := GenerateSized(qblast(t), rand.New(rand.NewSource(4)), n)
	origin := r.Origin[:r.NumVertices()]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		namerSink = NewNamerFromOrigins(r.Spec, origin)
	}
	runtime.ReadMemStats(&after)
	if perVertex := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(len(origin)); perVertex > 9 {
		t.Fatalf("NewNamerFromOrigins allocates %.1f B/vertex on a %d-vertex run, want at most 9", perVertex, len(origin))
	}
}

var namerSink *Namer

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
