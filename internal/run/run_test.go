package run

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/spec"
)

// figure3Exec builds the execution tree of the paper's Figure 3 run:
// F1 executed twice (one copy loops L1 twice, the other once); L2 executed
// twice (the second copy forks F2 twice).
func figure3Exec(t *testing.T, s *spec.Spec) *ExecTree {
	t.Helper()
	et := SingleExec(s)
	rootCopy := et.Copies[0]
	var f1Site, l2Site *ExecTree
	for _, site := range rootCopy.Sites {
		switch s.KindOf(site.HNode) {
		case spec.Fork:
			f1Site = site
		case spec.Loop:
			l2Site = site
		}
	}
	if f1Site == nil || l2Site == nil {
		t.Fatal("paper spec root sites not found")
	}
	// F1 twice.
	Duplicate(Duplicatable{Site: f1Site, Index: 0})
	// First F1 copy: L1 twice.
	l1Site := f1Site.Copies[0].Sites[0]
	Duplicate(Duplicatable{Site: l1Site, Index: 0})
	// L2 twice; in its second copy, F2 twice.
	Duplicate(Duplicatable{Site: l2Site, Index: 0})
	f2Site := l2Site.Copies[1].Sites[0]
	Duplicate(Duplicatable{Site: f2Site, Index: 0})
	return et
}

func TestSingleExecMatchesSpecShape(t *testing.T) {
	s := spec.PaperSpec()
	r, p := MustMaterialize(s, SingleExec(s))
	if r.NumVertices() != s.NumVertices() || r.NumEdges() != s.NumEdges() {
		t.Fatalf("minimal run is %dv/%de, want %dv/%de",
			r.NumVertices(), r.NumEdges(), s.NumVertices(), s.NumEdges())
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("minimal run invalid: %v", err)
	}
	// Minimal run must be isomorphic to G through the origin map.
	for _, e := range r.Graph.Edges() {
		if !s.Graph.HasEdge(r.Origin[e.Tail], r.Origin[e.Head]) {
			t.Fatalf("edge %v has no specification counterpart", e)
		}
	}
	// Plan: 1 root + one (−,+) pair per subgraph = 1 + 2*4 = 9 nodes.
	if len(p.Nodes) != 9 {
		t.Fatalf("minimal plan has %d nodes, want 9", len(p.Nodes))
	}
}

func TestFigure3Run(t *testing.T) {
	s := spec.PaperSpec()
	et := figure3Exec(t, s)
	if err := et.Validate(s); err != nil {
		t.Fatalf("figure-3 exec tree invalid: %v", err)
	}
	r, p := MustMaterialize(s, et)
	if err := r.Validate(); err != nil {
		t.Fatalf("figure-3 run invalid: %v", err)
	}
	if r.NumVertices() != 16 {
		t.Errorf("|V(R)| = %d, want 16", r.NumVertices())
	}
	if r.NumEdges() != 18 {
		t.Errorf("|E(R)| = %d, want 18", r.NumEdges())
	}
	// Execution plan matches Figure 7: 17 nodes, 11 + nodes, 6 − nodes.
	if len(p.Nodes) != 17 {
		t.Errorf("|V(T_R)| = %d, want 17", len(p.Nodes))
	}
	if p.NumPlus() != 11 {
		t.Errorf("plus nodes = %d, want 11", p.NumPlus())
	}
	// Nonempty + nodes: Figure 9 numbers exactly 9 of them.
	if got := len(p.NonEmptyPlus()); got != 9 {
		t.Errorf("nonempty + nodes = %d, want 9", got)
	}
	// Context multiset: root owns 3 vertices (a1, d1, h1); the two F1+
	// copies are empty; L1 copies own 2 vertices each; L2 copies own 2
	// each; F2 copies own 1 each (Figure 8).
	sizes := make(map[int]int) // context node ID -> #vertices
	for _, c := range p.Context {
		sizes[c.ID]++
	}
	var rootSize int
	counts := map[string]map[int]int{"fork": {}, "loop": {}}
	for id, n := range sizes {
		node := p.Nodes[id]
		if node.IsRoot() {
			rootSize = n
			continue
		}
		counts[s.KindOf(node.HNode).String()][n]++
	}
	if rootSize != 3 {
		t.Errorf("root context size = %d, want 3", rootSize)
	}
	// Loops: L1 copies {b1,c1},{b2,c2},{b3,c3} and L2 copies {e1,g1},{e2,g2}: five 2-vertex contexts.
	if counts["loop"][2] != 5 {
		t.Errorf("loop copies with 2 vertices = %d, want 5", counts["loop"][2])
	}
	// Forks: F2 copies {f1},{f2},{f3}: three 1-vertex contexts; F1 copies empty.
	if counts["fork"][1] != 3 {
		t.Errorf("fork copies with 1 vertex = %d, want 3", counts["fork"][1])
	}
	// Reachability facts from Section 1/4.2 checked on the raw graph.
	byName := func(name string) dag.VertexID {
		for v := 0; v < r.NumVertices(); v++ {
			if r.NameOf(dag.VertexID(v)) == name {
				return dag.VertexID(v)
			}
		}
		t.Fatalf("vertex %s not found", name)
		return -1
	}
	// b1/b2/c1/c2 live in one fork copy, b3/c3 in the other.
	if r.Graph.ReachableBFS(byName("b1"), byName("c3")) {
		t.Error("b1 should not reach c3 (parallel fork copies)")
	}
	if !r.Graph.ReachableBFS(byName("c1"), byName("b2")) {
		t.Error("c1 should reach b2 (successive loop iterations)")
	}
	if !r.Graph.ReachableBFS(byName("b1"), byName("c1")) {
		t.Error("b1 should reach c1 (same copy, spec edge)")
	}
	if r.Graph.ReachableBFS(byName("c1"), byName("d1")) {
		t.Error("c1 should not reach d1 (parallel branches in G)")
	}
	if !r.Graph.ReachableBFS(byName("f1"), byName("e2")) {
		t.Error("f1 should reach e2 (successive L2 iterations)")
	}
}

func TestNameOfSubscripts(t *testing.T) {
	s := spec.PaperSpec()
	et := figure3Exec(t, s)
	r, _ := MustMaterialize(s, et)
	seen := make(map[string]bool)
	for v := 0; v < r.NumVertices(); v++ {
		name := r.NameOf(dag.VertexID(v))
		if seen[name] {
			t.Fatalf("duplicate run vertex name %q", name)
		}
		seen[name] = true
	}
	for _, want := range []string{"a1", "b1", "b2", "b3", "c3", "f3", "g2", "h1"} {
		if !seen[want] {
			t.Errorf("expected run vertex %q", want)
		}
	}
}

func TestEstimateVerticesExact(t *testing.T) {
	s := spec.PaperSpec()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		et := RandomExecSteps(s, rng, rng.Intn(40))
		r, _ := MustMaterialize(s, et)
		if est := et.EstimateVertices(s); est != r.NumVertices() {
			t.Fatalf("estimate %d != actual %d", est, r.NumVertices())
		}
	}
}

func TestCountCopiesAndSites(t *testing.T) {
	s := spec.PaperSpec()
	et := SingleExec(s)
	if et.CountCopies() != 5 { // root + 4 subgraph copies
		t.Errorf("CountCopies = %d, want 5", et.CountCopies())
	}
	if et.CountSites() != 4 {
		t.Errorf("CountSites = %d, want 4", et.CountSites())
	}
	// Figure 7: 11 copies (+ nodes) and 6 sites (− nodes).
	ft := figure3Exec(t, s)
	if ft.CountCopies() != 11 || ft.CountSites() != 6 {
		t.Errorf("figure-3 copies/sites = %d/%d, want 11/6", ft.CountCopies(), ft.CountSites())
	}
}

func TestDuplicateDeepCopies(t *testing.T) {
	s := spec.PaperSpec()
	et := SingleExec(s)
	root := et.Copies[0]
	var f1Site *ExecTree
	for _, site := range root.Sites {
		if s.KindOf(site.HNode) == spec.Fork {
			f1Site = site
		}
	}
	// Blow up the nested L1 of copy 0, then duplicate copy 0: the clone
	// must carry the nested executions but be structurally independent.
	l1 := f1Site.Copies[0].Sites[0]
	Duplicate(Duplicatable{Site: l1, Index: 0})
	Duplicate(Duplicatable{Site: f1Site, Index: 0})
	if len(f1Site.Copies) != 2 {
		t.Fatalf("fork has %d copies, want 2", len(f1Site.Copies))
	}
	c0, c1 := f1Site.Copies[0].Sites[0], f1Site.Copies[1].Sites[0]
	if len(c0.Copies) != 2 || len(c1.Copies) != 2 {
		t.Fatal("duplication did not replicate nested loop executions")
	}
	Duplicate(Duplicatable{Site: c1, Index: 0})
	if len(c0.Copies) != 2 || len(c1.Copies) != 3 {
		t.Fatal("clone shares structure with original")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := spec.PaperSpec()
	et := RandomExecSteps(s, rand.New(rand.NewSource(3)), 10)
	cl := et.Clone()
	before := et.CountCopies()
	Duplicate(Duplicatable{Site: cl.Copies[0].Sites[0], Index: 0})
	if et.CountCopies() != before {
		t.Fatal("mutating clone changed original")
	}
}

func TestExecValidateRejectsMalformed(t *testing.T) {
	s := spec.PaperSpec()
	et := SingleExec(s)
	et.HNode = 1
	if err := et.Validate(s); err == nil {
		t.Error("wrong root HNode accepted")
	}
	et = SingleExec(s)
	et.Copies = append(et.Copies, et.Copies[0])
	if err := et.Validate(s); err == nil {
		t.Error("multi-copy root accepted")
	}
	et = SingleExec(s)
	et.Copies[0].Sites[0].Copies = nil
	if err := et.Validate(s); err == nil {
		t.Error("empty site accepted")
	}
	et = SingleExec(s)
	et.Copies[0].Sites = et.Copies[0].Sites[:1]
	if err := et.Validate(s); err == nil {
		t.Error("missing site accepted")
	}
}

func TestTerminalSharingLoop(t *testing.T) {
	// A loop whose source is the specification source: the first copy must
	// reuse the run source vertex and claim its context.
	b := spec.NewBuilder()
	b.Chain("a", "b", "c")
	b.Loop("a", "b")
	s := b.MustBuild()
	et := SingleExec(s)
	Duplicate(Duplicatable{Site: et.Copies[0].Sites[0], Index: 0})
	Duplicate(Duplicatable{Site: et.Copies[0].Sites[0], Index: 0})
	r, p := MustMaterialize(s, et)
	if err := r.Validate(); err != nil {
		t.Fatalf("terminal-sharing run invalid: %v", err)
	}
	// 3 loop copies: a1 b1 | a2 b2 | a3 b3, then c1: 7 vertices, 3 body
	// edges + 2 connectors + b3->c1 = 6 edges.
	if r.NumVertices() != 7 || r.NumEdges() != 6 {
		t.Fatalf("run is %dv/%de, want 7v/6e", r.NumVertices(), r.NumEdges())
	}
	// The run source's context must be the first loop copy, not the root.
	src, _, err := r.Graph.FlowNetworkTerminals()
	if err != nil {
		t.Fatal(err)
	}
	if p.Context[src].IsRoot() {
		t.Error("shared source context should be the loop copy, not the root")
	}
	// Estimator over-counts by exactly the documented adjustment (0 here
	// thanks to rootTerminalAdjustment).
	if est := et.EstimateVertices(s); est != r.NumVertices() {
		t.Errorf("estimate %d != actual %d", est, r.NumVertices())
	}
}

func TestValidateCatchesCorruptRuns(t *testing.T) {
	s := spec.PaperSpec()
	r, _ := MustMaterialize(s, SingleExec(s))
	// Corrupt an origin.
	bad := &Run{Spec: s, Graph: r.Graph, Origin: append([]dag.VertexID(nil), r.Origin...)}
	bad.Origin[0] = 99
	if err := bad.Validate(); err == nil {
		t.Error("invalid origin accepted")
	}
	// Origin count mismatch.
	bad2 := &Run{Spec: s, Graph: r.Graph, Origin: r.Origin[:3]}
	if err := bad2.Validate(); err == nil {
		t.Error("short origin vector accepted")
	}
	// An edge whose origin pair is neither a spec edge nor a loop
	// connector: c -> d crosses parallel branches of G.
	var cV, dV dag.VertexID = -1, -1
	for v := 0; v < r.NumVertices(); v++ {
		switch s.NameOf(r.Origin[v]) {
		case "c":
			cV = dag.VertexID(v)
		case "d":
			dV = dag.VertexID(v)
		}
	}
	g := dag.FromEdges(r.NumVertices(), append(r.Graph.Edges(), dag.Edge{Tail: cV, Head: dV}))
	bad3 := &Run{Spec: s, Graph: g, Origin: r.Origin}
	if err := bad3.Validate(); err == nil {
		t.Error("cross-branch edge accepted")
	}
}

// Validate's refusals keep their texts: each corruption of the paper's
// minimal run is refused with the message the run's checks gave before
// they moved onto the specification's pair table, and a run whose loop
// copies are joined by connectors, origin pairs that are no spec
// edges, is still accepted.
func TestValidateRefusalTexts(t *testing.T) {
	s := spec.PaperSpec()
	r, _ := MustMaterialize(s, SingleExec(s))
	n := r.NumVertices()
	vertexOf := func(module spec.ModuleName) dag.VertexID {
		for v, o := range r.Origin {
			if s.NameOf(o) == module {
				return dag.VertexID(v)
			}
		}
		t.Fatalf("no vertex of module %s", module)
		return -1
	}
	a, c, d := vertexOf("a"), vertexOf("c"), vertexOf("d")
	withEdges := func(extra int, es ...dag.Edge) *Run {
		origin := append([]dag.VertexID(nil), r.Origin...)
		for range extra {
			origin = append(origin, r.Origin[a])
		}
		return &Run{Spec: s, Graph: dag.FromEdges(n+extra, append(r.Graph.Edges(), es...)), Origin: origin}
	}
	for _, tc := range []struct {
		name string
		run  *Run
		want string
	}{
		{"two sources", withEdges(1), "run: dag: flow network needs exactly 1 source, found 2"},
		{"two sinks", withEdges(1, dag.Edge{Tail: a, Head: dag.VertexID(n)}), "run: dag: flow network needs exactly 1 sink, found 2"},
		{"cycle", withEdges(0, dag.Edge{Tail: c, Head: vertexOf("b")}), "run: dag: graph contains a cycle"},
		{"non-spec origin pair", withEdges(0, dag.Edge{Tail: c, Head: d}),
			fmt.Sprintf(`run: edge %d->%d originates from ("c","d"), which is neither a spec edge nor a loop connector`, c, d)},
	} {
		err := tc.run.Validate()
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.want)
		}
	}

	fig3, _ := MustMaterialize(s, figure3Exec(t, s))
	connectors := 0
	for u, ou := range fig3.Origin {
		for _, v := range fig3.Graph.Out(dag.VertexID(u)) {
			if !s.Graph.HasEdge(ou, fig3.Origin[v]) {
				connectors++
			}
		}
	}
	if connectors == 0 {
		t.Fatal("the Figure 3 run has no loop connector")
	}
	if err := fig3.Validate(); err != nil {
		t.Errorf("a run with %d loop connectors refused: %v", connectors, err)
	}
}

func TestOriginByName(t *testing.T) {
	s := spec.PaperSpec()
	names := []spec.ModuleName{"a", "b", "c", "h"}
	origin, err := OriginByName(s, names)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if s.NameOf(origin[i]) != n {
			t.Errorf("origin[%d] = %q, want %q", i, s.NameOf(origin[i]), n)
		}
	}
	if _, err := OriginByName(s, []spec.ModuleName{"a", "zz"}); err == nil {
		t.Error("unknown module accepted")
	}
}

func TestGenerateSizedApproximatesTarget(t *testing.T) {
	s := spec.PaperSpec()
	rng := rand.New(rand.NewSource(11))
	for _, target := range []int{100, 400, 1600, 6400} {
		r, p := GenerateSized(s, rng, target)
		if err := r.Validate(); err != nil {
			t.Fatalf("generated run invalid: %v", err)
		}
		if err := p.Validate(r.Graph); err != nil {
			t.Fatalf("generated plan invalid: %v", err)
		}
		n := r.NumVertices()
		if n < target/2 || n > target*2 {
			t.Errorf("target %d produced %d vertices (outside [%d,%d])", target, n, target/2, target*2)
		}
	}
}

func TestGenerateSizedOnLinearSpec(t *testing.T) {
	s := spec.LinearSpec(6)
	r, _ := GenerateSized(s, rand.New(rand.NewSource(1)), 1000)
	if r.NumVertices() != 6 {
		t.Errorf("fork/loop-free spec should yield the minimal run, got %d vertices", r.NumVertices())
	}
}

// Property: any run produced by random Definition-6 duplications is a
// valid acyclic flow network conforming to the specification, its
// materialized size matches the estimator, and its ground-truth plan
// passes all structural invariants including the Lemma 4.2 bound.
func TestQuickRandomRunsValid(t *testing.T) {
	specs := []*spec.Spec{spec.PaperSpec(), spec.IntroSpec()}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := specs[rng.Intn(len(specs))]
		et := RandomExecSteps(s, rng, rng.Intn(60))
		r, p := MustMaterialize(s, et)
		if err := r.Validate(); err != nil {
			t.Logf("run invalid: %v", err)
			return false
		}
		if err := p.Validate(r.Graph); err != nil {
			t.Logf("plan invalid: %v", err)
			return false
		}
		if et.EstimateVertices(s) != r.NumVertices() {
			t.Logf("estimate mismatch")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: the run graph never lets two copies of the same fork site see
// each other — checked indirectly: every run is acyclic and single
// source/sink (full reachability semantics are verified in the core
// package against labels).
func TestQuickRandomExpandValid(t *testing.T) {
	s := spec.PaperSpec()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		et := RandomExecExpand(s, rng, 1+rng.Float64()*3)
		if err := et.Validate(s); err != nil {
			return false
		}
		r, _ := MustMaterialize(s, et)
		return r.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
