package plan_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
)

// describePlan renders everything Construct promises to keep identical
// to the oracle: each node's ID, polarity, hierarchy node, parent and
// Children in order, the root, and every vertex's context. Plans render
// to the same string exactly when they are identical node for node.
func describePlan(p *plan.Plan, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	id := func(n *plan.Node) int {
		if n == nil {
			return -1
		}
		return n.ID
	}
	for i, n := range p.Nodes {
		fmt.Fprintf(&b, "%d id=%d plus=%t h=%d parent=%d kids=[", i, n.ID, n.Plus, n.HNode, id(n.Parent))
		for _, c := range n.Children {
			fmt.Fprintf(&b, " %d", c.ID)
		}
		b.WriteString(" ]\n")
	}
	fmt.Fprintf(&b, "root=%d\ncontext=", id(p.Root))
	for _, c := range p.Context {
		fmt.Fprintf(&b, " %d", id(c))
	}
	return b.String()
}

func checkAgainstOracle(t *testing.T, what string, s *spec.Spec, g *dag.Graph, origin []dag.VertexID) {
	t.Helper()
	got := describePlan(plan.Construct(s, g, origin))
	want := describePlan(plan.ConstructOracle(s, g, origin))
	if got != want {
		t.Fatalf("%s: Construct differs from the oracle\n got %.2000s\nwant %.2000s", what, got, want)
	}
}

// oracleSpecs returns the paper, intro and linear specifications and
// the six Table-1 stand-ins.
func oracleSpecs() map[string]*spec.Spec {
	specs := map[string]*spec.Spec{
		"paper":  spec.PaperSpec(),
		"intro":  spec.IntroSpec(),
		"linear": spec.LinearSpec(6),
	}
	for _, w := range workload.RealWorkflows() {
		specs[w.Name] = workload.MustStandIn(w.Name, 1)
	}
	return specs
}

// TestConstructMatchesOracle holds the arena constructor to the one it
// replaced (oracle_test.go) on generated runs of every specification and
// on corrupted runs: same node IDs, polarity, hierarchy nodes, parents,
// Children order, root and contexts, or the same error text.
func TestConstructMatchesOracle(t *testing.T) {
	specs := oracleSpecs()
	names := []string{"paper", "intro", "linear", "EBI", "PubMed", "QBLAST", "BioAID", "ProScan", "ProDisc"}
	if len(names) != len(specs) {
		t.Fatalf("%d names for %d specs", len(names), len(specs))
	}
	rng := rand.New(rand.NewSource(20))
	mutants, rejected := 0, 0
	for _, name := range names {
		s := specs[name]
		var runs []*run.Run
		for i := 0; i < 12; i++ {
			r, _ := run.MustMaterialize(s, run.RandomExecSteps(s, rng, rng.Intn(60)))
			runs = append(runs, r)
		}
		for i := 0; i < 6; i++ {
			r, _ := run.MustMaterialize(s, run.RandomExecExpand(s, rng, 1+rng.Float64()))
			if r.NumVertices() <= 5000 {
				runs = append(runs, r)
			}
		}
		for _, size := range []int{100, 700, 3000} {
			r, _ := run.GenerateSized(s, rng, size)
			runs = append(runs, r)
		}
		for i, r := range runs {
			checkAgainstOracle(t, fmt.Sprintf("%s run %d (%d vertices)", name, i, r.NumVertices()), s, r.Graph, r.Origin)
		}
		// Corruptions of the smaller runs: at least 2,000 in all.
		for trial := 0; trial < 240; trial++ {
			r := runs[rng.Intn(len(runs)-3)]
			g, origin, how := mutateRun(rng, r)
			if _, err := plan.ConstructOracle(s, g, origin); err != nil {
				rejected++
			}
			checkAgainstOracle(t, fmt.Sprintf("%s mutant %d (%s)", name, trial, how), s, g, origin)
			mutants++
		}
	}
	if mutants < 2000 {
		t.Fatalf("only %d mutants checked", mutants)
	}
	if rejected == 0 {
		t.Fatal("no mutant was rejected, so no error path was compared")
	}
	t.Logf("%d mutants, %d rejected by both constructors", mutants, rejected)
}
