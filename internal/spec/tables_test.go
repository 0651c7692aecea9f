package spec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/spec"
	"repro/internal/workload"
)

// tableSpecs returns the paper's specifications, the six Table-1
// stand-ins and random synthetic specifications of up to four
// hierarchy levels.
func tableSpecs(t *testing.T) map[string]*spec.Spec {
	specs := map[string]*spec.Spec{"paper": spec.PaperSpec(), "intro": spec.IntroSpec(), "linear": spec.LinearSpec(5)}
	for _, w := range workload.RealWorkflows() {
		specs[w.Name] = workload.MustStandIn(w.Name, 1)
	}
	rng := rand.New(rand.NewSource(36))
	for len(specs) < 9+20 {
		p := workload.Params{NG: 10 + rng.Intn(60), TGSize: 1 + rng.Intn(8), TGDepth: 1 + rng.Intn(4)}
		p.MG = p.NG + rng.Intn(p.NG)
		s, err := workload.Synthesize(rng, p)
		if err != nil {
			continue // infeasible draw
		}
		specs[fmt.Sprintf("random %v", p)] = s
	}
	return specs
}

// The pair table Validate builds answers, for every ordered pair of
// specification vertices, what a scan of the graph and of the loops
// answers: AllowsRunEdge is a spec edge or a loop connector, LeafLeader
// is the leaf whose first edge the pair is. Region(h) is V(H).
func TestPairTableMatchesScan(t *testing.T) {
	for name, s := range tableSpecs(t) {
		n := dag.VertexID(s.NumVertices())
		for u := range n {
			for v := range n {
				connector, leader := false, 0
				for i, sub := range s.Subgraphs {
					if sub.Kind == spec.Loop && sub.Sink == u && sub.Source == v {
						connector = true
					}
					if len(s.Hier.Children[i+1]) == 0 && sub.Edges[0] == (dag.Edge{Tail: u, Head: v}) {
						leader = i + 1
					}
				}
				if got, want := s.AllowsRunEdge(u, v), s.Graph.HasEdge(u, v) || connector; got != want {
					t.Fatalf("%s: AllowsRunEdge(%d, %d) = %v, want %v", name, u, v, got, want)
				}
				if got := s.LeafLeader(u, v); got != leader {
					t.Fatalf("%s: LeafLeader(%d, %d) = %d, want %d", name, u, v, got, leader)
				}
			}
		}
		for h := range s.Hier.NumNodes() {
			region := s.Region(h)
			for v := range n {
				want := h == 0 || s.SubgraphOf(h).HasVertex(v)
				if region.Test(int(v)) != want {
					t.Fatalf("%s: Region(%d) has %d = %v, want %v", name, h, v, !want, want)
				}
			}
		}
	}
}
