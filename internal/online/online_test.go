package online_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/online"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
)

func skeletonFor(t testing.TB, s *spec.Spec) label.Labeling {
	skel, err := label.TCM{}.Build(s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	return skel
}

// TestReplayMatchesOracle replays materialized runs through the online
// API and checks every pair against graph reachability.
func TestReplayMatchesOracle(t *testing.T) {
	specs := []*spec.Spec{spec.PaperSpec(), spec.IntroSpec()}
	rng := rand.New(rand.NewSource(3))
	for _, s := range specs {
		skel := skeletonFor(t, s)
		for trial := 0; trial < 6; trial++ {
			et := run.RandomExecSteps(s, rng, 3+rng.Intn(25))
			r, truth := run.MustMaterialize(s, et)
			l, err := events.Replay(s, skel, events.Emit(r, truth))
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if l.NumVertices() != r.NumVertices() {
				t.Fatalf("replay registered %d vertices, want %d", l.NumVertices(), r.NumVertices())
			}
			closure, _ := r.Graph.TransitiveClosure()
			n := r.NumVertices()
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					got := l.Reachable(dag.VertexID(u), dag.VertexID(v))
					want := closure.Reachable(dag.VertexID(u), dag.VertexID(v))
					if got != want {
						t.Fatalf("online Reachable(%s,%s) = %v, want %v",
							r.NameOf(dag.VertexID(u)), r.NameOf(dag.VertexID(v)), got, want)
					}
				}
			}
		}
	}
}

// TestIncrementalAppendSemantics grows a run step by step through the
// online API and checks the semantic consequences of each append.
func TestIncrementalAppendSemantics(t *testing.T) {
	s := spec.PaperSpec()
	skel := skeletonFor(t, s)
	l := online.New(s, skel)
	root := l.Root()

	var f1, l1, l2, f2 int
	for i, sub := range s.Subgraphs {
		node := s.NodeOf(i)
		switch {
		case sub.Kind == spec.Fork && s.NameOf(sub.Source) == "a":
			f1 = node
		case sub.Kind == spec.Loop && s.NameOf(sub.Source) == "b":
			l1 = node
		case sub.Kind == spec.Loop && s.NameOf(sub.Source) == "e":
			l2 = node
		case sub.Kind == spec.Fork && s.NameOf(sub.Source) == "e":
			f2 = node
		}
	}
	orig := func(name spec.ModuleName) dag.VertexID {
		v, ok := s.VertexOf(name)
		if !ok {
			t.Fatalf("module %s missing", name)
		}
		return v
	}
	mustExec := func(c *online.Copy, name spec.ModuleName) dag.VertexID {
		v, err := l.AddExec(c, orig(name))
		if err != nil {
			t.Fatalf("AddExec(%s): %v", name, err)
		}
		return v
	}
	mustCopy := func(parent *online.Copy, hnode int) *online.Copy {
		c, err := l.StartCopy(parent, hnode)
		if err != nil {
			t.Fatalf("StartCopy: %v", err)
		}
		return c
	}

	// The engine starts the run: a executes, then the first F1 copy with
	// one L1 iteration.
	a1 := mustExec(root, "a")
	f1c1 := mustCopy(root, f1)
	l1c1 := mustCopy(f1c1, l1)
	b1 := mustExec(l1c1, "b")
	c1 := mustExec(l1c1, "c")
	if !l.Reachable(a1, b1) || l.Reachable(b1, a1) {
		t.Fatal("a1 -> b1 wrong")
	}
	if !l.Reachable(b1, c1) || l.Reachable(c1, b1) {
		t.Fatal("b1 -> c1 within iteration wrong")
	}
	// The loop iterates again: everything in iteration 1 reaches iteration 2.
	l1c2, err := l.StartLoopIterationAfter(l1c1)
	if err != nil {
		t.Fatal(err)
	}
	b2 := mustExec(l1c2, "b")
	c2 := mustExec(l1c2, "c")
	if !l.Reachable(c1, b2) || !l.Reachable(b1, c2) {
		t.Fatal("loop iteration 1 should reach iteration 2")
	}
	if l.Reachable(b2, c1) {
		t.Fatal("iteration 2 should not reach iteration 1")
	}
	// A second parallel F1 copy: mutually unreachable with the first.
	f1c2 := mustCopy(root, f1)
	l1c3 := mustCopy(f1c2, l1)
	b3 := mustExec(l1c3, "b")
	c3 := mustExec(l1c3, "c")
	if l.Reachable(b1, c3) || l.Reachable(b3, c2) || l.Reachable(c3, b1) {
		t.Fatal("parallel fork copies should be mutually unreachable")
	}
	// The lower branch: d at the root, L2 with a nested F2.
	d1 := mustExec(root, "d")
	l2c1 := mustCopy(root, l2)
	e1 := mustExec(l2c1, "e")
	f2c1 := mustCopy(l2c1, f2)
	fx1 := mustExec(f2c1, "f")
	g1 := mustExec(l2c1, "g")
	if !l.Reachable(d1, fx1) || l.Reachable(fx1, d1) {
		t.Fatal("d1 -> f1 wrong")
	}
	if l.Reachable(b1, e1) || l.Reachable(e1, b1) {
		t.Fatal("parallel branches of G should be unreachable")
	}
	// Second L2 iteration with two parallel F2 copies.
	l2c2, err := l.StartLoopIterationAfter(l2c1)
	if err != nil {
		t.Fatal(err)
	}
	e2 := mustExec(l2c2, "e")
	f2c2 := mustCopy(l2c2, f2)
	fx2 := mustExec(f2c2, "f")
	f2c3 := mustCopy(l2c2, f2)
	fx3 := mustExec(f2c3, "f")
	g2 := mustExec(l2c2, "g")
	if !l.Reachable(fx1, e2) || !l.Reachable(g1, fx2) {
		t.Fatal("first L2 iteration should reach the second")
	}
	if l.Reachable(fx2, fx3) || l.Reachable(fx3, fx2) {
		t.Fatal("parallel F2 copies should be mutually unreachable")
	}
	// Insert an iteration BETWEEN the two existing L2 iterations.
	l2mid, err := l.StartLoopIterationAfter(l2c1)
	if err != nil {
		t.Fatal(err)
	}
	eM := mustExec(l2mid, "e")
	if !l.Reachable(e1, eM) || !l.Reachable(eM, e2) {
		t.Fatal("middle iteration should sit between 1 and 2")
	}
	if l.Reachable(e2, eM) || l.Reachable(eM, e1) {
		t.Fatal("middle iteration direction wrong")
	}
	// Finish: h at the root.
	h1 := mustExec(root, "h")
	for _, v := range []dag.VertexID{a1, b1, c2, b3, g2, eM} {
		if !l.Reachable(v, h1) {
			t.Fatalf("vertex %d should reach the sink", v)
		}
	}
	_ = g1
}

func TestOnlineErrors(t *testing.T) {
	s := spec.PaperSpec()
	l := online.New(s, skeletonFor(t, s))
	root := l.Root()
	if root.HNode() != 0 {
		t.Error("root hnode should be 0")
	}
	if _, err := l.StartCopy(root, 99); err == nil {
		t.Error("invalid hnode accepted")
	}
	// L1 is not a child of the root.
	var l1 int
	for i, sub := range s.Subgraphs {
		if sub.Kind == spec.Loop && s.NameOf(sub.Source) == "b" {
			l1 = s.NodeOf(i)
		}
	}
	if _, err := l.StartCopy(root, l1); err == nil {
		t.Error("non-child hierarchy node accepted")
	}
	if _, err := l.StartLoopIterationAfter(root); err == nil {
		t.Error("root accepted as loop iteration")
	}
	if _, err := l.AddExec(root, 100); err == nil {
		t.Error("invalid origin accepted")
	}
	// A module outside the copy's subgraph.
	var f1 int
	for i, sub := range s.Subgraphs {
		if sub.Kind == spec.Fork && s.NameOf(sub.Source) == "a" {
			f1 = s.NodeOf(i)
		}
	}
	c, err := l.StartCopy(root, f1)
	if err != nil {
		t.Fatal(err)
	}
	dOrig, _ := s.VertexOf("d")
	if _, err := l.AddExec(c, dOrig); err == nil {
		t.Error("module outside subgraph accepted")
	}
}

// TestRenumberStress forces key-gap exhaustion by repeatedly inserting at
// the same position and checks that answers stay correct across global
// renumberings.
func TestRenumberStress(t *testing.T) {
	b := spec.NewBuilder()
	b.Chain("s", "x", "t")
	b.Loop("s", "t", "x")
	s := b.MustBuild()
	l := online.New(s, skeletonFor(t, s))
	root := l.Root()
	first, err := l.StartCopy(root, 1)
	if err != nil {
		t.Fatal(err)
	}
	xOrig, _ := s.VertexOf("x")
	firstX, _ := l.AddExec(first, xOrig)
	var vertices []dag.VertexID
	// Repeatedly insert immediately after the first iteration: each new
	// iteration lands in the same shrinking gap, forcing renumbers.
	for i := 0; i < 300; i++ {
		c, err := l.StartLoopIterationAfter(first)
		if err != nil {
			t.Fatal(err)
		}
		v, err := l.AddExec(c, xOrig)
		if err != nil {
			t.Fatal(err)
		}
		vertices = append(vertices, v)
	}
	if l.Renumbers() == 0 {
		t.Error("expected at least one renumbering under adversarial inserts")
	}
	// Iterations were inserted after `first` each time, so the serial
	// order is: firstX, then vertices in REVERSE creation order.
	for i := 0; i < len(vertices); i++ {
		if !l.Reachable(firstX, vertices[i]) {
			t.Fatalf("first iteration should reach every later iteration (i=%d)", i)
		}
		if i > 0 && !l.Reachable(vertices[i], vertices[i-1]) {
			t.Fatalf("iteration inserted later should precede earlier insert (i=%d)", i)
		}
		if i > 0 && l.Reachable(vertices[i-1], vertices[i]) {
			t.Fatalf("backward reachability across inserts (i=%d)", i)
		}
	}
}

// Property: replaying any random run online agrees with the oracle on
// sampled pairs.
func TestQuickReplayAgainstOracle(t *testing.T) {
	specs := []*spec.Spec{spec.PaperSpec(), spec.IntroSpec()}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := specs[rng.Intn(len(specs))]
		skel, err := label.BFS{}.Build(s.Graph)
		if err != nil {
			return false
		}
		et := run.RandomExecSteps(s, rng, rng.Intn(60))
		r, truth := run.MustMaterialize(s, et)
		l, err := events.Replay(s, skel, events.Emit(r, truth))
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		searcher := dag.NewSearcher(r.Graph)
		n := r.NumVertices()
		for q := 0; q < 300; q++ {
			u := dag.VertexID(rng.Intn(n))
			v := dag.VertexID(rng.Intn(n))
			if l.Reachable(u, v) != searcher.ReachableBFS(u, v) {
				t.Logf("seed %d: mismatch (%s,%s)", seed, r.NameOf(u), r.NameOf(v))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestStreamAllocs pins that StartCopy and AddExec allocate nothing of
// their own: labeling a 2,000-vertex QBLAST stream, labeler included,
// costs less than one allocation per 20 calls, all of it the amortized
// growth of the labeler's columns and copy chunks.
func TestStreamAllocs(t *testing.T) {
	s := workload.MustStandIn("QBLAST", 1)
	skel := skeletonFor(t, s)
	r, p := run.GenerateSized(s, rand.New(rand.NewSource(7)), 2000)
	evs := events.Emit(r, p)
	origins := make([]dag.VertexID, len(evs))
	for i, e := range evs {
		if e.Kind == events.ModuleExec {
			origins[i], _ = s.VertexOf(e.Module)
		}
	}
	copies := make([]*online.Copy, 0, len(evs)+1)
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		l := online.New(s, skel)
		copies = append(copies[:0], l.Root())
		for i, e := range evs {
			if e.Kind == events.CopyStart {
				var c *online.Copy
				c, err = l.StartCopy(copies[e.Parent], e.HNode)
				copies = append(copies, c)
			} else {
				_, err = l.AddExec(copies[e.Copy], origins[i])
			}
			if err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumVertices() < 2000 {
		t.Fatalf("run has %d vertices, want at least 2,000", r.NumVertices())
	}
	if perCall := allocs / float64(len(evs)); perCall >= 0.05 {
		t.Fatalf("%v allocations for %d calls: %.3f per call", allocs, len(evs), perCall)
	}
	t.Logf("%v allocations for %d calls", allocs, len(evs))
}

func BenchmarkOnlineAppendLoopIteration(b *testing.B) {
	s := spec.PaperSpec()
	skel, _ := label.TCM{}.Build(s.Graph)
	l := online.New(s, skel)
	root := l.Root()
	var l2 int
	for i, sub := range s.Subgraphs {
		if sub.Kind == spec.Loop && s.NameOf(sub.Source) == "e" {
			l2 = i + 1
		}
	}
	eOrig, _ := s.VertexOf("e")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := l.StartCopy(root, l2) // appends the next serial iteration
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.AddExec(c, eOrig); err != nil {
			b.Fatal(err)
		}
	}
}
