package order_test

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/plan"
	"repro/internal/run"
	"repro/internal/spec"
)

// lca returns the least common ancestor of two plan nodes.
func lca(a, b *plan.Node) *plan.Node {
	depth := func(n *plan.Node) int {
		d := 0
		for x := n; x.Parent != nil; x = x.Parent {
			d++
		}
		return d
	}
	da, db := depth(a), depth(b)
	for da > db {
		a = a.Parent
		da--
	}
	for db > da {
		b = b.Parent
		db--
	}
	for a != b {
		a = a.Parent
		b = b.Parent
	}
	return a
}

// positions returns each plan node's 1-based place in O1, O2 and O3 (0
// for − nodes and empty + nodes) and the count of nonempty + nodes,
// n⁺_T: the positions core.LabelRunWithPlan writes, by the same
// traversals.
func positions(p *plan.Plan) (pos [3][]uint32, np int) {
	mark := make([]uint32, len(p.Nodes))
	for _, c := range p.Context {
		mark[c.ID] = 1
	}
	for i, reverseAt := range [3]spec.Kind{^spec.Kind(0), spec.Fork, spec.Loop} {
		pos[i] = make([]uint32, len(p.Nodes))
		k := uint32(0)
		order.Preorder(p, mark, reverseAt, func(x *plan.Node) { k++; pos[i][x.ID] = k })
		np = int(k)
	}
	return pos, np
}

func TestPreorderPositionsAreDenseAndConsistent(t *testing.T) {
	s := spec.PaperSpec()
	rng := rand.New(rand.NewSource(1))
	et := run.RandomExecSteps(s, rng, 20)
	_, p := run.MustMaterialize(s, et)
	pos, np := positions(p)
	nonEmpty := p.NonEmptyPlus()
	if np != len(nonEmpty) {
		t.Fatalf("n+T = %d, want %d", np, len(nonEmpty))
	}
	for _, pos := range pos {
		seen := make(map[uint32]bool)
		count := 0
		for _, n := range p.Nodes {
			q := pos[n.ID]
			if q == 0 {
				continue
			}
			if !n.Plus {
				t.Fatal("− node received a position")
			}
			if seen[q] {
				t.Fatalf("duplicate position %d", q)
			}
			seen[q] = true
			count++
			if q > uint32(np) {
				t.Fatalf("position %d exceeds n+T %d", q, np)
			}
		}
		if count != np {
			t.Fatalf("order covers %d nodes, want %d", count, np)
		}
	}
}

// TestLemma45 verifies all three rules of Lemma 4.5 exhaustively: for
// every pair of nonempty + nodes, order.Context on their places decides
// exactly when their true least common ancestor is an − node, and then
// answers as that node says: never across an F− node, and across an L−
// node only from an earlier iteration to a later one. A context paired
// with itself is never decided. The places are the offline labels'
// dense positions and the online labeler's sparse keys after replaying
// the run's events.
func TestLemma45(t *testing.T) {
	specs := []*spec.Spec{spec.PaperSpec(), spec.IntroSpec()}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s := specs[trial%len(specs)]
		et := run.RandomExecSteps(s, rng, 5+rng.Intn(30))
		r, p := run.MustMaterialize(s, et)
		pos, _ := positions(p)
		skel, err := label.TCM{}.Build(s.Graph)
		if err != nil {
			t.Fatal(err)
		}
		lab, err := events.Replay(s, skel, events.Emit(r, p))
		if err != nil {
			t.Fatal(err)
		}
		// vertex is one run vertex per context, whose online label
		// carries its context's keys.
		vertex := make(map[*plan.Node]dag.VertexID)
		for v, c := range p.Context {
			if _, ok := vertex[c]; !ok {
				vertex[c] = dag.VertexID(v)
			}
		}
		nodes := p.NonEmptyPlus()
		for _, x := range nodes {
			for _, y := range nodes {
				var wantReach, wantDecided bool
				if anc := lca(x, y); !anc.Plus {
					wantDecided = true
					if p.KindOf(anc) == spec.Loop {
						wantReach = childIndexUnder(anc, x) < childIndexUnder(anc, y)
					}
				}
				reach, decided := order.Context(
					pos[0][x.ID], pos[1][x.ID], pos[2][x.ID],
					pos[0][y.ID], pos[1][y.ID], pos[2][y.ID])
				if reach != wantReach || decided != wantDecided {
					t.Fatalf("nodes %d, %d: positions give (reach %v, decided %v), want (%v, %v)",
						x.ID, y.ID, reach, decided, wantReach, wantDecided)
				}
				a, b := lab.CurrentLabel(vertex[x]), lab.CurrentLabel(vertex[y])
				reach, decided = order.Context(a.K1, a.K2, a.K3, b.K1, b.K2, b.K3)
				if reach != wantReach || decided != wantDecided {
					t.Fatalf("nodes %d, %d: online keys give (reach %v, decided %v), want (%v, %v)",
						x.ID, y.ID, reach, decided, wantReach, wantDecided)
				}
			}
		}
	}
}

// TestClassifySameContext checks that a context paired with itself is
// never decided, whether its places are dense positions or sparse keys.
func TestClassifySameContext(t *testing.T) {
	if reach, decided := order.Context[uint32](3, 5, 7, 3, 5, 7); reach || decided {
		t.Errorf("identical positions give (reach %v, decided %v), want (false, false)", reach, decided)
	}
	if reach, decided := order.Context[uint64](1<<40, 5, 1<<33, 1<<40, 5, 1<<33); reach || decided {
		t.Errorf("identical keys give (reach %v, decided %v), want (false, false)", reach, decided)
	}
}

// childIndexUnder returns the index of the child of anc on the path from
// anc down to n.
func childIndexUnder(anc, n *plan.Node) int {
	x := n
	for x.Parent != anc {
		x = x.Parent
	}
	for i, c := range anc.Children {
		if c == x {
			return i
		}
	}
	return -1
}
