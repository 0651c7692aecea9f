// Package core implements the paper's primary contribution: the
// skeleton-based reachability labeling scheme (SKL) for workflow runs.
//
// Given a specification labeled by any scheme (the skeleton labels) and a
// run of that specification, SKL assigns each run vertex a label
// (q1, q2, q3, origin): the positions of the vertex's context in the three
// preorder traversals of the execution plan, plus a reference to the
// skeleton label of the vertex's origin. Reachability between two run
// vertices is decided in O(1) from the three order positions when their
// contexts' least common ancestor is an F− or L− node, and by one skeleton
// query otherwise (Algorithm 3).
//
// For a fixed specification the scheme is optimal: labels are
// 3·log n_R + log n_G bits, construction is O(m_R + n_R), and queries run
// in constant time (Theorem 1).
package core

import (
	"fmt"
	"math/bits"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/order"
	"repro/internal/plan"
	"repro/internal/run"
)

// Label is the SKL reachability label of one run vertex: the context's
// positions in the three total orders and the origin reference standing
// for the skeleton label (log n_G bits; the skeleton labeling itself is
// shared across all runs of the specification, matching the paper's
// amortized storage model).
type Label struct {
	Q1, Q2, Q3 uint32
	Orig       dag.VertexID
}

// Labeling is a labeled run: it answers reachability queries over run
// vertices in constant time plus at most one skeleton query.
//
// A Labeling is immutable after construction. All query methods
// (Reachable, ReachableLabels, AnsweredByContext, Label, the statistics
// accessors) only read the label slice and delegate to the skeleton
// labeling, whose implementations are likewise safe for concurrent
// queries (see internal/label); any number of goroutines may query one
// Labeling concurrently with no external locking. WriteTo also only
// reads. This is the contract the store sessions and the query server
// build on, enforced by -race tests here and in those packages.
type Labeling struct {
	labels        []Label
	skeleton      label.Labeling
	numPositioned int
	numSpec       int
}

// LabelRun labels a run with the skeleton-based scheme, reconstructing the
// execution plan and context from the run graph (the paper's default
// setting). skeleton must be a labeling of r.Spec.Graph.
func LabelRun(r *run.Run, skeleton label.Labeling) (*Labeling, error) {
	p, err := plan.Construct(r.Spec, r.Graph, r.Origin)
	if err != nil {
		return nil, err
	}
	return LabelRunWithPlan(r, p, skeleton)
}

// LabelRunWithPlan labels a run whose execution plan and context are
// already available (the paper's "with execution plan & context" setting,
// e.g. extracted from a workflow engine's log).
func LabelRunWithPlan(r *run.Run, p *plan.Plan, skeleton label.Labeling) (*Labeling, error) {
	if len(p.Context) != r.NumVertices() {
		return nil, fmt.Errorf("core: plan context covers %d vertices, run has %d",
			len(p.Context), r.NumVertices())
	}
	o := order.Generate(p)
	labels := make([]Label, r.NumVertices())
	for v := range labels {
		x := p.Context[v]
		if x == nil {
			return nil, fmt.Errorf("core: vertex %d has no context", v)
		}
		labels[v] = Label{
			Q1:   o.Pos1[x.ID],
			Q2:   o.Pos2[x.ID],
			Q3:   o.Pos3[x.ID],
			Orig: r.Origin[v],
		}
	}
	return &Labeling{
		labels:        labels,
		skeleton:      skeleton,
		numPositioned: o.NumPositioned,
		numSpec:       r.Spec.NumVertices(),
	}, nil
}

// Label returns the label of run vertex v.
func (l *Labeling) Label(v dag.VertexID) Label { return l.labels[v] }

// Origins returns each run vertex's specification vertex, read from
// the labels' Orig components: the run's origin map without its graph.
func (l *Labeling) Origins() []dag.VertexID {
	out := make([]dag.VertexID, len(l.labels))
	for v, lab := range l.labels {
		out[v] = lab.Orig
	}
	return out
}

// NumVertices returns the number of labeled run vertices.
func (l *Labeling) NumVertices() int { return len(l.labels) }

// NumPositioned returns n⁺_T, the number of nonempty + nodes in the
// execution plan (the range of the order positions).
func (l *Labeling) NumPositioned() int { return l.numPositioned }

// Skeleton returns the underlying specification labeling.
func (l *Labeling) Skeleton() label.Labeling { return l.skeleton }

// Reachable reports whether run vertex v is reachable from run vertex u.
func (l *Labeling) Reachable(u, v dag.VertexID) bool {
	return l.ReachableLabels(l.labels[u], l.labels[v])
}

// ReachableLabels is the binary predicate πr of Algorithm 3, evaluated on
// two labels alone.
func (l *Labeling) ReachableLabels(a, b Label) bool {
	d2 := int64(a.Q2) - int64(b.Q2)
	d3 := int64(a.Q3) - int64(b.Q3)
	if d2*d3 < 0 {
		// The contexts' LCA is an F− or L− node; reachable exactly for a
		// forward loop relationship.
		return a.Q1 < b.Q1 && a.Q3 > b.Q3
	}
	return l.skeleton.Reachable(a.Orig, b.Orig)
}

// AnsweredByContext reports whether the query (u, v) is decided by the
// context encoding alone, without consulting the skeleton labels. Used by
// the experiments to explain why query time *drops* as runs grow when the
// skeleton labeling is search-based (Section 8.2).
func (l *Labeling) AnsweredByContext(u, v dag.VertexID) bool {
	a, b := l.labels[u], l.labels[v]
	d2 := int64(a.Q2) - int64(b.Q2)
	d3 := int64(a.Q3) - int64(b.Q3)
	return d2*d3 < 0
}

// MaxLabelBits returns the worst-case label length in bits under
// variable-length integer encoding: 3·⌈log(n⁺_T+1)⌉ for the three order
// positions plus ⌈log n_G⌉ for the skeleton reference (Lemma 4.7).
func (l *Labeling) MaxLabelBits() int {
	return 3*intBits(uint64(l.numPositioned)) + intBits(uint64(l.numSpec-1))
}

// AvgLabelBits returns the mean label length in bits over all run
// vertices, encoding each component with the minimal number of bits for
// its value (the paper's "average length ... measured only for the
// variable-size labels").
func (l *Labeling) AvgLabelBits() float64 {
	if len(l.labels) == 0 {
		return 0
	}
	total := 0
	for _, lab := range l.labels {
		total += intBits(uint64(lab.Q1)) + intBits(uint64(lab.Q2)) + intBits(uint64(lab.Q3)) +
			intBits(uint64(lab.Orig))
	}
	return float64(total) / float64(len(l.labels))
}

// intBits returns the number of bits needed to represent x (at least 1).
func intBits(x uint64) int {
	if x == 0 {
		return 1
	}
	return bits.Len64(x)
}
