package core_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/plan"
	"repro/internal/run"
	"repro/internal/spec"
)

func mustLabel(t testing.TB, r *run.Run, scheme label.Scheme) *core.Labeling {
	t.Helper()
	skel, err := scheme.Build(r.Spec.Graph)
	if err != nil {
		t.Fatalf("skeleton build: %v", err)
	}
	l, err := core.LabelRun(r, skel)
	if err != nil {
		t.Fatalf("LabelRun: %v", err)
	}
	return l
}

// figure3Run rebuilds the paper's Figure 3 run.
func figure3Run(t *testing.T) *run.Run {
	t.Helper()
	s := spec.PaperSpec()
	et := run.SingleExec(s)
	var f1Site, l2Site *run.ExecTree
	for _, site := range et.Copies[0].Sites {
		if s.KindOf(site.HNode) == spec.Fork {
			f1Site = site
		} else {
			l2Site = site
		}
	}
	run.Duplicate(run.Duplicatable{Site: f1Site, Index: 0})
	run.Duplicate(run.Duplicatable{Site: f1Site.Copies[0].Sites[0], Index: 0})
	run.Duplicate(run.Duplicatable{Site: l2Site, Index: 0})
	run.Duplicate(run.Duplicatable{Site: l2Site.Copies[1].Sites[0], Index: 0})
	r, _ := run.MustMaterialize(s, et)
	return r
}

func vertexByName(t *testing.T, r *run.Run, name string) dag.VertexID {
	t.Helper()
	for v := 0; v < r.NumVertices(); v++ {
		if r.NameOf(dag.VertexID(v)) == name {
			return dag.VertexID(v)
		}
	}
	t.Fatalf("vertex %q not found", name)
	return -1
}

// TestPaperQueries replays the three provenance queries of the
// introduction and the worked examples of Sections 4.2 and 4.4.
func TestPaperQueries(t *testing.T) {
	r := figure3Run(t)
	l := mustLabel(t, r, label.TCM{})
	cases := []struct {
		from, to string
		want     bool
		why      string
	}{
		{"b1", "c3", false, "parallel fork copies (intro query 1)"},
		{"c1", "b2", true, "successive loop iterations (intro query 2)"},
		{"b1", "c1", true, "same copy, reachable in G (intro query 3)"},
		{"c1", "d1", false, "c does not reach d in G (Example 9)"},
		{"f1", "e2", true, "successive L2 iterations (Example 6)"},
		{"e2", "f1", false, "backward across loop iterations"},
		{"f2", "f3", false, "parallel F2 copies"},
		{"a1", "h1", true, "source reaches sink"},
		{"h1", "a1", false, "sink does not reach source"},
		{"b2", "h1", true, "loop body reaches sink"},
		{"d1", "f3", true, "d reaches f in G, same context chain"},
		{"f3", "d1", false, "no backward path"},
	}
	for _, c := range cases {
		u, v := vertexByName(t, r, c.from), vertexByName(t, r, c.to)
		if got := l.Reachable(u, v); got != c.want {
			t.Errorf("Reachable(%s,%s) = %v, want %v (%s)", c.from, c.to, got, c.want, c.why)
		}
	}
	// Query 1 and 2 must be answered by the context encoding alone.
	if !l.AnsweredByContext(vertexByName(t, r, "b1"), vertexByName(t, r, "c3")) {
		t.Error("fork-copy query should be answered by context encoding")
	}
	if !l.AnsweredByContext(vertexByName(t, r, "c1"), vertexByName(t, r, "b2")) {
		t.Error("loop-iteration query should be answered by context encoding")
	}
	// Query 3 needs the skeleton labels.
	if l.AnsweredByContext(vertexByName(t, r, "b1"), vertexByName(t, r, "c1")) {
		t.Error("same-copy query should fall through to skeleton labels")
	}
}

// TestExhaustiveAgainstOracle compares every vertex pair of moderate runs
// against direct graph reachability, for every skeleton scheme.
func TestExhaustiveAgainstOracle(t *testing.T) {
	specs := []*spec.Spec{spec.PaperSpec(), spec.IntroSpec(), spec.LinearSpec(7)}
	rng := rand.New(rand.NewSource(99))
	for _, s := range specs {
		for trial := 0; trial < 4; trial++ {
			et := run.RandomExecSteps(s, rng, 4+rng.Intn(18))
			r, _ := run.MustMaterialize(s, et)
			closure, ok := r.Graph.TransitiveClosure()
			if !ok {
				t.Fatal("run graph cyclic")
			}
			for _, scheme := range label.All() {
				l := mustLabel(t, r, scheme)
				n := r.NumVertices()
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						got := l.Reachable(dag.VertexID(u), dag.VertexID(v))
						want := closure.Reachable(dag.VertexID(u), dag.VertexID(v))
						if got != want {
							t.Fatalf("scheme %s: Reachable(%s,%s) = %v, want %v",
								scheme.Name(), r.NameOf(dag.VertexID(u)), r.NameOf(dag.VertexID(v)), got, want)
						}
					}
				}
			}
		}
	}
}

// Property: SKL agrees with BFS reachability on random Definition-6 runs
// with randomly chosen skeleton schemes, on sampled pairs.
func TestQuickAgainstOracle(t *testing.T) {
	specs := []*spec.Spec{spec.PaperSpec(), spec.IntroSpec()}
	schemes := label.All()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := specs[rng.Intn(len(specs))]
		et := run.RandomExecSteps(s, rng, rng.Intn(120))
		r, _ := run.MustMaterialize(s, et)
		skel, err := schemes[rng.Intn(len(schemes))].Build(s.Graph)
		if err != nil {
			return false
		}
		l, err := core.LabelRun(r, skel)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		searcher := dag.NewSearcher(r.Graph)
		n := r.NumVertices()
		for q := 0; q < 400; q++ {
			u := dag.VertexID(rng.Intn(n))
			v := dag.VertexID(rng.Intn(n))
			if l.Reachable(u, v) != searcher.ReachableBFS(u, v) {
				t.Logf("seed %d: mismatch at (%s,%s)", seed, r.NameOf(u), r.NameOf(v))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestWithPlanMatchesReconstructed: labeling with the materializer's
// ground-truth plan and labeling from the graph alone give identical
// query answers.
func TestWithPlanMatchesReconstructed(t *testing.T) {
	s := spec.PaperSpec()
	rng := rand.New(rand.NewSource(21))
	et := run.RandomExecSteps(s, rng, 30)
	r, truth := run.MustMaterialize(s, et)
	skel, _ := label.TCM{}.Build(s.Graph)
	fromGraph, err := core.LabelRun(r, skel)
	if err != nil {
		t.Fatal(err)
	}
	fromPlan, err := core.LabelRunWithPlan(r, truth, skel)
	if err != nil {
		t.Fatal(err)
	}
	n := r.NumVertices()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			a := fromGraph.Reachable(dag.VertexID(u), dag.VertexID(v))
			b := fromPlan.Reachable(dag.VertexID(u), dag.VertexID(v))
			if a != b {
				t.Fatalf("plan-given and reconstructed labelings disagree at (%d,%d)", u, v)
			}
		}
	}
}

func TestLabelBitsBounds(t *testing.T) {
	s := spec.PaperSpec()
	rng := rand.New(rand.NewSource(5))
	for _, target := range []int{50, 200, 1000} {
		r, _ := run.GenerateSized(s, rng, target)
		l := mustLabel(t, r, label.TCM{})
		nR := r.NumVertices()
		nG := s.NumVertices()
		// Lemma 4.7: label length <= 3 log nR + log nG.
		bound := 3*bitsFor(nR) + bitsFor(nG)
		if got := l.MaxLabelBits(); got > bound {
			t.Errorf("MaxLabelBits = %d exceeds bound %d (nR=%d)", got, bound, nR)
		}
		if avg := l.AvgLabelBits(); avg <= 0 || avg > float64(l.MaxLabelBits()) {
			t.Errorf("AvgLabelBits = %v out of range (max %d)", avg, l.MaxLabelBits())
		}
		if l.NumPositioned() > nR {
			t.Errorf("n+T = %d exceeds nR = %d", l.NumPositioned(), nR)
		}
	}
}

func bitsFor(n int) int {
	b := 0
	for x := n; x > 0; x >>= 1 {
		b++
	}
	return b
}

func TestLabelAccessors(t *testing.T) {
	r := figure3Run(t)
	skel, _ := label.BFS{}.Build(r.Spec.Graph)
	l, err := core.LabelRun(r, skel)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumVertices() != r.NumVertices() {
		t.Error("NumVertices mismatch")
	}
	if l.Skeleton() != skel {
		t.Error("Skeleton accessor mismatch")
	}
	a1 := vertexByName(t, r, "a1")
	lab := l.Label(a1)
	if lab.Orig != r.Origin[a1] {
		t.Error("Label.Orig mismatch")
	}
	if lab.Q1 == 0 || lab.Q2 == 0 || lab.Q3 == 0 {
		t.Error("a1's context should be positioned (root is nonempty)")
	}
	// ReachableLabels must be usable with detached labels.
	h1 := vertexByName(t, r, "h1")
	if !l.ReachableLabels(l.Label(a1), l.Label(h1)) {
		t.Error("ReachableLabels(a1,h1) should be true")
	}
}

func TestLabelRunWithPlanRejectsMismatchedPlan(t *testing.T) {
	s := spec.PaperSpec()
	r1, _ := run.MustMaterialize(s, run.SingleExec(s))
	et := run.SingleExec(s)
	run.Duplicate(run.Duplicatable{Site: et.Copies[0].Sites[0], Index: 0})
	_, p2 := run.MustMaterialize(s, et)
	skel, _ := label.TCM{}.Build(s.Graph)
	if _, err := core.LabelRunWithPlan(r1, p2, skel); err == nil {
		t.Error("plan for a different run accepted")
	}
}

// TestSkeletonSchemeIrrelevance: all skeleton schemes produce labelings
// with identical answers (the robustness claim of Section 8.2).
func TestSkeletonSchemeIrrelevance(t *testing.T) {
	r := figure3Run(t)
	var labelings []*core.Labeling
	for _, scheme := range label.All() {
		labelings = append(labelings, mustLabel(t, r, scheme))
	}
	n := r.NumVertices()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := labelings[0].Reachable(dag.VertexID(u), dag.VertexID(v))
			for _, l := range labelings[1:] {
				if l.Reachable(dag.VertexID(u), dag.VertexID(v)) != want {
					t.Fatalf("schemes disagree at (%d,%d)", u, v)
				}
			}
		}
	}
}

// TestContextOnlyShareGrowsWithRunSize: the share of vertex pairs decided
// without skeleton labels grows with fork/loop replication — the paper's
// explanation for decreasing BFS+SKL query time (Section 8.2).
func TestContextOnlyShareGrowsWithRunSize(t *testing.T) {
	s := spec.PaperSpec()
	rng := rand.New(rand.NewSource(17))
	share := func(target int) float64 {
		r, _ := run.GenerateSized(s, rng, target)
		l := mustLabel(t, r, label.BFS{})
		n := r.NumVertices()
		hits, total := 0, 0
		for q := 0; q < 20000; q++ {
			u := dag.VertexID(rng.Intn(n))
			v := dag.VertexID(rng.Intn(n))
			if u == v {
				continue
			}
			total++
			if l.AnsweredByContext(u, v) {
				hits++
			}
		}
		return float64(hits) / float64(total)
	}
	small := share(20)
	big := share(2000)
	if big <= small {
		t.Errorf("context-only share should grow with run size: small=%.3f big=%.3f", small, big)
	}
	if big < 0.35 {
		t.Errorf("large runs should answer a large share of queries from context alone, got %.3f", big)
	}
}

var sinkBool bool

func BenchmarkLabelRun(b *testing.B) {
	s := spec.PaperSpec()
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(1)), 10000)
	skel, _ := label.TCM{}.Build(s.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.LabelRun(r, skel); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQueryTCMSKL(b *testing.B) {
	s := spec.PaperSpec()
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(2)), 10000)
	skel, _ := label.TCM{}.Build(s.Graph)
	l, err := core.LabelRun(r, skel)
	if err != nil {
		b.Fatal(err)
	}
	n := r.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := dag.VertexID(i % n)
		v := dag.VertexID((i * 31) % n)
		sinkBool = l.Reachable(u, v)
	}
}

var sinkPlan *plan.Plan

func BenchmarkConstructPlan(b *testing.B) {
	s := spec.PaperSpec()
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(3)), 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := plan.Construct(s, r.Graph, r.Origin)
		if err != nil {
			b.Fatal(err)
		}
		sinkPlan = p
	}
}
