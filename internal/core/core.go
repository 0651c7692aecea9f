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
// A Labeling is a Snapshot bound to a skeleton labeling, so it holds the
// paper's factoring of the labels (Lemma 4.7) and nothing else: each
// vertex's context (its Q1) and origin, and one (Q2, Q3) row per
// context. A Labeling is immutable after construction and builds nothing
// lazily: every method only reads those columns and delegates to the
// skeleton labeling, whose implementations are likewise safe for
// concurrent queries (see internal/label). Any number of goroutines may
// query one Labeling concurrently with no external locking. This is the
// contract the store sessions and the query server build on, enforced by
// -race tests here and in those packages.
type Labeling struct {
	snap     Snapshot
	skeleton label.Labeling
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
	n := r.NumVertices()
	if len(p.Context) != n {
		return nil, fmt.Errorf("core: plan context covers %d vertices, run has %d", len(p.Context), n)
	}
	o := order.Generate(p)
	l := &Labeling{skeleton: skeleton}
	var err error
	if l.snap, err = newSnapshot(uint64(n), uint64(o.NumPositioned), uint64(r.Spec.NumVertices()), 0); err != nil {
		return nil, err
	}
	// The orders give each plan node one position apiece, so the labels
	// factor by construction; put's checks are for stored labels.
	s := &l.snap
	for v, x := range p.Context {
		if x == nil {
			return nil, fmt.Errorf("core: vertex %d has no context", v)
		}
		q := o.Pos1[x.ID]
		s.q1[v], s.orig[v] = q, r.Origin[v]
		s.ord[2*q], s.ord[2*q+1] = o.Pos2[x.ID], o.Pos3[x.ID]
	}
	return l, nil
}

// Label returns the label of run vertex v.
func (l *Labeling) Label(v dag.VertexID) Label { return l.snap.Label(v) }

// Origins returns each run vertex's specification vertex: the run's
// origin map without its graph. The slice is the labeling's own origin
// column; callers must not modify it.
func (l *Labeling) Origins() []dag.VertexID { return l.snap.orig }

// NumVertices returns the number of labeled run vertices.
func (l *Labeling) NumVertices() int { return l.snap.NumVertices() }

// NumPositioned returns n⁺_T, the number of nonempty + nodes in the
// execution plan (the range of the order positions).
func (l *Labeling) NumPositioned() int { return l.snap.NumPositioned }

// Skeleton returns the underlying specification labeling.
func (l *Labeling) Skeleton() label.Labeling { return l.skeleton }

// Reachable reports whether run vertex v is reachable from run vertex u.
func (l *Labeling) Reachable(u, v dag.VertexID) bool {
	return l.ReachableLabels(l.snap.Label(u), l.snap.Label(v))
}

// ReachableLabels is the binary predicate πr of Algorithm 3, evaluated on
// two labels alone.
func (l *Labeling) ReachableLabels(a, b Label) bool {
	if reach, decided := byContext(a, b); decided {
		return reach
	}
	return l.skeleton.Reachable(a.Orig, b.Orig)
}

// byContext is πr's context part, on order positions alone: decided
// reports whether the contexts' LCA is an F− or L− node (d2·d3 < 0), and
// reach is then the answer — reachable exactly for a forward loop
// relationship. Otherwise the skeleton query on the origins decides.
func byContext(a, b Label) (reach, decided bool) {
	d2 := int64(a.Q2) - int64(b.Q2)
	d3 := int64(a.Q3) - int64(b.Q3)
	if d2*d3 < 0 {
		return a.Q1 < b.Q1 && a.Q3 > b.Q3, true
	}
	return false, false
}

// AnsweredByContext reports whether the query (u, v) is decided by the
// context encoding alone, without consulting the skeleton labels. Used by
// the experiments to explain why query time *drops* as runs grow when the
// skeleton labeling is search-based (Section 8.2).
func (l *Labeling) AnsweredByContext(u, v dag.VertexID) bool {
	_, decided := byContext(l.snap.Label(u), l.snap.Label(v))
	return decided
}

// MaxLabelBits returns the worst-case label length in bits under
// variable-length integer encoding: 3·⌈log(n⁺_T+1)⌉ for the three order
// positions plus ⌈log n_G⌉ for the skeleton reference (Lemma 4.7).
func (l *Labeling) MaxLabelBits() int {
	return 3*intBits(uint64(l.snap.NumPositioned)) + intBits(uint64(l.snap.NumSpec-1))
}

// AvgLabelBits returns the mean label length in bits over all run
// vertices, encoding each component with the minimal number of bits for
// its value (the paper's "average length ... measured only for the
// variable-size labels").
func (l *Labeling) AvgLabelBits() float64 {
	n := l.NumVertices()
	if n == 0 {
		return 0
	}
	total := 0
	for v := range n {
		lab := l.snap.Label(dag.VertexID(v))
		total += intBits(uint64(lab.Q1)) + intBits(uint64(lab.Q2)) + intBits(uint64(lab.Q3)) +
			intBits(uint64(lab.Orig))
	}
	return float64(total) / float64(n)
}

// intBits returns the number of bits needed to represent x (at least 1).
func intBits(x uint64) int {
	if x == 0 {
		return 1
	}
	return bits.Len64(x)
}
