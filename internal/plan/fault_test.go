package plan_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/plan"
	"repro/internal/run"
	"repro/internal/spec"
)

// mutateRun applies one random structural corruption to the run and
// reports what it did. The run itself is left as it is.
func mutateRun(rng *rand.Rand, r *run.Run) (*dag.Graph, []dag.VertexID, string) {
	origin := append([]dag.VertexID(nil), r.Origin...)
	n := r.NumVertices()
	switch rng.Intn(3) {
	case 0:
		// Rewire a random edge to a random target (keeping direction by
		// construction order, which may create cross-copy edges).
		edges := r.Graph.Edges()
		i := rng.Intn(len(edges))
		e := edges[i]
		edges = append(slices.Delete(edges, i, i+1), dag.Edge{Tail: e.Tail, Head: dag.VertexID(rng.Intn(n))})
		return dag.FromEdges(n, edges), origin, "rewired edge"
	case 1:
		// Corrupt one origin.
		origin[rng.Intn(n)] = dag.VertexID(rng.Intn(r.Spec.NumVertices()))
		return r.Graph, origin, "corrupted origin"
	default:
		// Delete a random edge.
		edges := r.Graph.Edges()
		i := rng.Intn(len(edges))
		return dag.FromEdges(n, slices.Delete(edges, i, i+1)), origin, "deleted edge"
	}
}

// TestFaultInjection corrupts valid runs and requires that the pipeline
// never silently produces a wrong labeling: either run validation fails,
// plan construction fails, or the resulting plan still satisfies every
// structural invariant AND answers queries consistently with the
// (possibly corrupted) graph... in which case the mutation must have
// produced another valid run (possible: deleting a duplicated loop
// connector can yield a smaller valid run shape). Silent acceptance with
// wrong answers is the only failure mode.
func TestFaultInjection(t *testing.T) {
	s := spec.PaperSpec()
	// A search skeleton answers from the spec graph alone, so the labels
	// carry no index of their own to agree with.
	skel, err := label.BFS{}.Build(s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1234))
	accepted, rejected := 0, 0
	for trial := 0; trial < 300; trial++ {
		et := run.RandomExecSteps(s, rng, 2+rng.Intn(15))
		base, _ := run.MustMaterialize(s, et)
		g, origin, _ := mutateRun(rng, base)
		mutated := &run.Run{Spec: s, Graph: g, Origin: origin}
		if err := mutated.Validate(); err != nil {
			rejected++
			continue // caught by cheap validation
		}
		p, err := plan.Construct(s, g, origin)
		if err != nil {
			rejected++
			continue // caught by plan construction
		}
		if err := p.Validate(g); err != nil {
			rejected++
			continue // caught by structural invariants
		}
		// Construction accepted the mutant: the answers must then agree
		// with actual graph reachability (i.e. the mutant happens to be a
		// conforming run).
		accepted++
		closure, ok := g.TransitiveClosure()
		if !ok {
			t.Fatalf("trial %d: accepted cyclic mutant", trial)
		}
		l, err := core.LabelRunWithPlan(mutated, p, skel)
		if err != nil {
			t.Fatalf("trial %d: labeling an accepted plan: %v", trial, err)
		}
		n := g.NumVertices()
		for q := 0; q < 400; q++ {
			u := dag.VertexID(rng.Intn(n))
			v := dag.VertexID(rng.Intn(n))
			if l.Reachable(u, v) != closure.Reachable(u, v) {
				t.Fatalf("trial %d: silently accepted mutant with wrong answers at (%d,%d)", trial, u, v)
			}
		}
	}
	if rejected == 0 {
		t.Error("expected at least some mutants to be rejected")
	}
	t.Logf("fault injection: %d rejected, %d accepted-as-valid", rejected, accepted)
}
