package plan_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/run"
	"repro/internal/spec"
)

// mustConstruct runs Construct and fails the test on error.
func mustConstruct(t *testing.T, r *run.Run) *plan.Plan {
	t.Helper()
	p, err := plan.Construct(r.Spec, r.Graph, r.Origin)
	if err != nil {
		t.Fatalf("Construct: %v", err)
	}
	if err := p.Validate(r.Graph); err != nil {
		t.Fatalf("constructed plan invalid: %v", err)
	}
	return p
}

func TestConstructMinimalRun(t *testing.T) {
	for _, s := range []*spec.Spec{spec.PaperSpec(), spec.IntroSpec(), spec.LinearSpec(5)} {
		r, truth := run.MustMaterialize(s, run.SingleExec(s))
		p := mustConstruct(t, r)
		if got, want := p.Canonical(), truth.Canonical(); got != want {
			t.Errorf("minimal run plan mismatch:\n got %s\nwant %s", got, want)
		}
	}
}

func TestConstructFigure3(t *testing.T) {
	s := spec.PaperSpec()
	et := run.SingleExec(s)
	rootCopy := et.Copies[0]
	var f1Site, l2Site *run.ExecTree
	for _, site := range rootCopy.Sites {
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
	r, truth := run.MustMaterialize(s, et)
	p := mustConstruct(t, r)
	if len(p.Nodes) != 17 {
		t.Errorf("|V(T_R)| = %d, want 17 (Figure 7)", len(p.Nodes))
	}
	if got, want := p.Canonical(), truth.Canonical(); got != want {
		t.Errorf("figure-3 plan mismatch:\n got %s\nwant %s", got, want)
	}
	// Spot-check contexts from Figure 8 by module occurrence names.
	byName := make(map[string]dag.VertexID)
	for v := 0; v < r.NumVertices(); v++ {
		byName[r.NameOf(dag.VertexID(v))] = dag.VertexID(v)
	}
	if !p.Context[byName["a1"]].IsRoot() || !p.Context[byName["d1"]].IsRoot() || !p.Context[byName["h1"]].IsRoot() {
		t.Error("a1, d1, h1 should have the root context")
	}
	if p.Context[byName["b1"]] != p.Context[byName["c1"]] {
		t.Error("b1 and c1 should share a loop-copy context")
	}
	if p.Context[byName["b1"]] == p.Context[byName["b2"]] {
		t.Error("b1 and b2 are successive loop iterations with distinct contexts")
	}
	if p.Context[byName["e1"]] != p.Context[byName["g1"]] {
		t.Error("e1 and g1 should share the first L2 copy context")
	}
	if p.Context[byName["f2"]] == p.Context[byName["f3"]] {
		t.Error("f2 and f3 are parallel fork copies with distinct contexts")
	}
	// Loop copy order: the L2− node's children must put e1's copy before e2's.
	l2Minus := p.Context[byName["e1"]].Parent
	if l2Minus != p.Context[byName["e2"]].Parent {
		t.Fatal("e1 and e2 copies should share the L2− parent")
	}
	if len(l2Minus.Children) != 2 ||
		l2Minus.Children[0] != p.Context[byName["e1"]] ||
		l2Minus.Children[1] != p.Context[byName["e2"]] {
		t.Error("L2− children are not in serial order")
	}
}

func TestConstructTerminalSharingLoop(t *testing.T) {
	b := spec.NewBuilder()
	b.Chain("a", "b", "c")
	b.Loop("a", "b")
	s := b.MustBuild()
	et := run.SingleExec(s)
	run.Duplicate(run.Duplicatable{Site: et.Copies[0].Sites[0], Index: 0})
	run.Duplicate(run.Duplicatable{Site: et.Copies[0].Sites[0], Index: 0})
	r, truth := run.MustMaterialize(s, et)
	p := mustConstruct(t, r)
	if got, want := p.Canonical(), truth.Canonical(); got != want {
		t.Errorf("terminal-sharing plan mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestConstructEqualEdgeSetForkLoop(t *testing.T) {
	// A fork and loop with identical edge sets (the paper's F2/L2 shape),
	// replicated in both dimensions.
	s := spec.PaperSpec()
	et := run.SingleExec(s)
	var l2Site *run.ExecTree
	for _, site := range et.Copies[0].Sites {
		if s.KindOf(site.HNode) == spec.Loop {
			l2Site = site
		}
	}
	for i := 0; i < 3; i++ {
		run.Duplicate(run.Duplicatable{Site: l2Site, Index: i})
		f2 := l2Site.Copies[i].Sites[0]
		for j := 0; j <= i; j++ {
			run.Duplicate(run.Duplicatable{Site: f2, Index: 0})
		}
	}
	r, truth := run.MustMaterialize(s, et)
	p := mustConstruct(t, r)
	if got, want := p.Canonical(), truth.Canonical(); got != want {
		t.Errorf("plan mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestConstructRejectsNonConformingRun(t *testing.T) {
	s := spec.PaperSpec()
	r, _ := run.MustMaterialize(s, run.SingleExec(s))
	t.Run("origin length mismatch", func(t *testing.T) {
		if _, err := plan.Construct(s, r.Graph, r.Origin[:2]); err == nil {
			t.Error("short origin accepted")
		}
	})
	t.Run("cross-branch edge", func(t *testing.T) {
		// Connect the two parallel branches of G inside F1: c -> e crosses
		// from the fork interior into the loop, breaking self-containment.
		var cV, eV dag.VertexID = -1, -1
		for v := 0; v < r.NumVertices(); v++ {
			switch s.NameOf(r.Origin[v]) {
			case "c":
				cV = dag.VertexID(v)
			case "e":
				eV = dag.VertexID(v)
			}
		}
		g := dag.FromEdges(r.NumVertices(), append(r.Graph.Edges(), dag.Edge{Tail: cV, Head: eV}))
		if _, err := plan.Construct(s, g, r.Origin); err == nil {
			t.Error("cross-branch run accepted")
		}
	})
}

// Property: for random Definition-6 runs over several specs, the
// reconstructed plan is canonically identical to the materializer's ground
// truth.
func TestQuickConstructMatchesGroundTruth(t *testing.T) {
	specs := []*spec.Spec{spec.PaperSpec(), spec.IntroSpec()}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := specs[rng.Intn(len(specs))]
		et := run.RandomExecSteps(s, rng, rng.Intn(80))
		r, truth := run.MustMaterialize(s, et)
		p, err := plan.Construct(s, r.Graph, r.Origin)
		if err != nil {
			t.Logf("seed %d: construct failed: %v", seed, err)
			return false
		}
		if err := p.Validate(r.Graph); err != nil {
			t.Logf("seed %d: invalid plan: %v", seed, err)
			return false
		}
		if p.Canonical() != truth.Canonical() {
			t.Logf("seed %d: canonical mismatch", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: construction also matches ground truth for runs generated with
// the geometric expander (larger, bushier trees).
func TestQuickConstructOnExpandedRuns(t *testing.T) {
	s := spec.PaperSpec()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		et := run.RandomExecExpand(s, rng, 1+3*rng.Float64())
		r, truth := run.MustMaterialize(s, et)
		p, err := plan.Construct(s, r.Graph, r.Origin)
		if err != nil {
			return false
		}
		return p.Canonical() == truth.Canonical()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConstructLargeRunLinearTimeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("large run")
	}
	s := spec.PaperSpec()
	rng := rand.New(rand.NewSource(5))
	r, truth := run.GenerateSized(s, rng, 50_000)
	p := mustConstruct(t, r)
	if p.Canonical() != truth.Canonical() {
		t.Error("large run plan mismatch")
	}
}

func TestPlanStringAndNonEmptyPlus(t *testing.T) {
	s := spec.PaperSpec()
	r, truth := run.MustMaterialize(s, run.SingleExec(s))
	if truth.String() == "" {
		t.Error("String should render something")
	}
	ne := truth.NonEmptyPlus()
	for _, n := range ne {
		if !n.Plus {
			t.Error("NonEmptyPlus returned a − node")
		}
	}
	if len(ne) == 0 || len(ne) > truth.NumPlus() {
		t.Errorf("NonEmptyPlus count %d out of range", len(ne))
	}
	_ = r
}
