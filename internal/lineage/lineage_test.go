package lineage_test

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/lineage"
	"repro/internal/run"
	"repro/internal/spec"
)

func figure3(t testing.TB) (*run.Run, *core.Labeling) {
	s := spec.PaperSpec()
	r, _ := run.Figure3Run(s)
	skel, err := label.TCM{}.Build(s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.LabelRun(r, skel)
	if err != nil {
		t.Fatal(err)
	}
	return r, l
}

func byName(t testing.TB, r *run.Run, name string) dag.VertexID {
	for v := 0; v < r.NumVertices(); v++ {
		if r.NameOf(dag.VertexID(v)) == name {
			return dag.VertexID(v)
		}
	}
	t.Fatalf("vertex %s not found", name)
	return -1
}

func names(r *run.Run, vs []dag.VertexID) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = r.NameOf(v)
	}
	sort.Strings(out)
	return out
}

func TestUpstreamDownstreamFigure3(t *testing.T) {
	r, _ := figure3(t)
	// Upstream of c2: a1, b1, c1, b2 (the loop chain in the first fork copy).
	up := names(r, lineage.Upstream(r, byName(t, r, "c2")))
	want := []string{"a1", "b1", "b2", "c1"}
	if len(up) != len(want) {
		t.Fatalf("Upstream(c2) = %v, want %v", up, want)
	}
	for i := range want {
		if up[i] != want[i] {
			t.Fatalf("Upstream(c2) = %v, want %v", up, want)
		}
	}
	// Downstream of e1: f1, g1, then the whole second L2 iteration and h1.
	down := names(r, lineage.Downstream(r, byName(t, r, "e1")))
	wantDown := []string{"e2", "f1", "f2", "f3", "g1", "g2", "h1"}
	if len(down) != len(wantDown) {
		t.Fatalf("Downstream(e1) = %v, want %v", down, wantDown)
	}
	for i := range wantDown {
		if down[i] != wantDown[i] {
			t.Fatalf("Downstream(e1) = %v, want %v", down, wantDown)
		}
	}
}

func TestLabelScanMatchesTraversal(t *testing.T) {
	r, l := figure3(t)
	for v := 0; v < r.NumVertices(); v++ {
		vt := dag.VertexID(v)
		upT := names(r, lineage.Upstream(r, vt))
		upL := names(r, lineage.UpstreamByLabels(l, vt))
		if len(upT) != len(upL) {
			t.Fatalf("vertex %s: traversal %v vs labels %v", r.NameOf(vt), upT, upL)
		}
		for i := range upT {
			if upT[i] != upL[i] {
				t.Fatalf("vertex %s: traversal %v vs labels %v", r.NameOf(vt), upT, upL)
			}
		}
		downT := names(r, lineage.Downstream(r, vt))
		downL := names(r, lineage.DownstreamByLabels(l, vt))
		if len(downT) != len(downL) {
			t.Fatalf("vertex %s down: %v vs %v", r.NameOf(vt), downT, downL)
		}
	}
}

func TestExplain(t *testing.T) {
	r, l := figure3(t)
	u, v := byName(t, r, "a1"), byName(t, r, "g2")
	path := lineage.Explain(r, u, v)
	if path == nil || path[0] != u || path[len(path)-1] != v {
		t.Fatalf("Explain(a1,g2) = %v", path)
	}
	// Every consecutive pair must be a real edge.
	for i := 0; i+1 < len(path); i++ {
		if !r.Graph.HasEdge(path[i], path[i+1]) {
			t.Fatalf("path step %d not an edge", i)
		}
	}
	if lineage.Explain(r, byName(t, r, "b1"), byName(t, r, "c3")) != nil {
		t.Error("parallel fork copies should have no explaining path")
	}
	if p := lineage.Explain(r, u, u); len(p) != 1 || p[0] != u {
		t.Error("self path should be the singleton")
	}
	_ = l
}

// Property: Explain returns a valid path exactly when labels say
// reachable.
func TestQuickExplainConsistentWithLabels(t *testing.T) {
	s := spec.PaperSpec()
	skel, _ := label.TCM{}.Build(s.Graph)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		et := run.RandomExecSteps(s, rng, rng.Intn(40))
		r, _ := run.MustMaterialize(s, et)
		l, err := core.LabelRun(r, skel)
		if err != nil {
			return false
		}
		n := r.NumVertices()
		for q := 0; q < 100; q++ {
			u := dag.VertexID(rng.Intn(n))
			v := dag.VertexID(rng.Intn(n))
			path := lineage.Explain(r, u, v)
			if (path != nil) != l.Reachable(u, v) {
				return false
			}
			for i := 0; i+1 < len(path); i++ {
				if !r.Graph.HasEdge(path[i], path[i+1]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
