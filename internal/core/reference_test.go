package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/label"
	"repro/internal/plan"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
)

// referenceOrders is Algorithm 1 as the labeler once ran it apart from
// the label columns: three iterative preorder traversals, each into a
// position array over plan nodes, with the nonempty + nodes marked in
// an occupancy slice first. It returns O1, O2 and O3 positions and n⁺_T.
func referenceOrders(p *plan.Plan) (pos [3][]uint32, np int) {
	occupied := make([]bool, len(p.Nodes))
	for _, c := range p.Context {
		occupied[c.ID] = true
	}
	for i, reverseAt := range [3]spec.Kind{spec.Kind(255), spec.Fork, spec.Loop} {
		pos[i] = make([]uint32, len(p.Nodes))
		counter := uint32(0)
		stack := []*plan.Node{p.Root}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n.Plus && occupied[n.ID] {
				counter++
				pos[i][n.ID] = counter
			}
			kids := n.Children
			if !n.Plus && p.KindOf(n) == reverseAt {
				for k := 0; k < len(kids); k++ {
					stack = append(stack, kids[k])
				}
			} else {
				for k := len(kids) - 1; k >= 0; k-- {
					stack = append(stack, kids[k])
				}
			}
		}
		np = int(counter)
	}
	return pos, np
}

// referenceSnapshot labels r over p with referenceOrders and returns
// the SKL2 snapshot of those labels.
func referenceSnapshot(t *testing.T, r *run.Run, p *plan.Plan, skel label.Labeling) []byte {
	t.Helper()
	pos, np := referenceOrders(p)
	labels := make([]core.Label, r.NumVertices())
	for v, x := range p.Context {
		labels[v] = core.Label{Q1: pos[0][x.ID], Q2: pos[1][x.ID], Q3: pos[2][x.ID], Orig: r.Origin[v]}
	}
	s, err := core.NewSnapshot(np, r.Spec.NumVertices(), labels)
	if err != nil {
		t.Fatal(err)
	}
	l, err := s.Bind(skel)
	if err != nil {
		t.Fatal(err)
	}
	return l.AppendSnapshot(nil)
}

// TestLabelRunMatchesReference pins the labels LabelRunWithPlan writes
// straight into the label columns to those of the reference orders,
// snapshot byte for snapshot byte: on the Figure 3 run and on random
// runs of every Table-1 stand-in, each with the plan the generator
// gives and the one plan.Construct rebuilds.
func TestLabelRunMatchesReference(t *testing.T) {
	type labeled struct {
		name string
		r    *run.Run
		p    *plan.Plan
	}
	r, p := run.Figure3Run(spec.PaperSpec())
	runs := []labeled{{"figure 3", r, p}}
	rng := rand.New(rand.NewSource(42))
	for _, w := range workload.RealWorkflows() {
		s := workload.MustStandIn(w.Name, 1)
		for _, size := range []int{60, 400, 2000} {
			r, p := run.GenerateSized(s, rng, size)
			runs = append(runs, labeled{w.Name, r, p})
		}
	}
	for _, x := range runs {
		skel, err := label.TCM{}.Build(x.r.Spec.Graph)
		if err != nil {
			t.Fatal(err)
		}
		built, err := plan.Construct(x.r.Spec, x.r.Graph, x.r.Origin)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*plan.Plan{x.p, built} {
			l, err := core.LabelRunWithPlan(x.r, p, skel)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := l.AppendSnapshot(nil), referenceSnapshot(t, x.r, p, skel); !bytes.Equal(got, want) {
				t.Fatalf("%s, %d vertices: LabelRunWithPlan's snapshot (%d bytes) differs from the reference orders' (%d bytes)",
					x.name, x.r.NumVertices(), len(got), len(want))
			}
		}
	}
}
