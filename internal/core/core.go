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
	"repro/internal/spec"
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
// context, plus the snapshot's index of context spans (runs of
// consecutive vertices with one context; see Snapshot), which AppendCone
// walks. A Labeling is immutable after construction and builds nothing
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
//
// It runs Algorithm 1's three traversals itself and writes each
// position where the snapshot reads it. One scratch entry per plan node
// first marks the nonempty + nodes, then holds each one's O1 position,
// its Q1; the O2 and O3 positions go straight into its context's row.
// The orders give each plan node one position apiece, so the labels
// factor by construction; labelCheck's checks are for stored labels.
func LabelRunWithPlan(r *run.Run, p *plan.Plan, skeleton label.Labeling) (*Labeling, error) {
	n := r.NumVertices()
	if len(p.Context) != n {
		return nil, fmt.Errorf("core: plan context covers %d vertices, run has %d", len(p.Context), n)
	}
	pos := make([]uint32, len(p.Nodes))
	for v, x := range p.Context {
		if x == nil {
			return nil, fmt.Errorf("core: vertex %d has no context", v)
		}
		pos[x.ID] = 1
	}
	var k uint32
	order.Preorder(p, pos, noReversal, func(x *plan.Node) { k++; pos[x.ID] = k })
	l := &Labeling{skeleton: skeleton}
	var err error
	if l.snap, err = newSnapshot(uint64(n), uint64(k), uint64(r.Spec.NumVertices()), 0); err != nil {
		return nil, err
	}
	s := &l.snap
	for v, x := range p.Context {
		s.q1[v], s.orig[v] = pos[x.ID], r.Origin[v]
	}
	for col, reverseAt := range [2]spec.Kind{spec.Fork, spec.Loop} {
		k = 0
		order.Preorder(p, pos, reverseAt, func(x *plan.Node) { k++; s.ord[2*pos[x.ID]+uint32(col)] = k })
	}
	s.spans = contextSpans(s.q1)
	return l, nil
}

// noReversal is the reverseAt of O1, which reverses no − node: it is
// neither spec.Fork nor spec.Loop.
const noReversal = ^spec.Kind(0)

// Label returns the label of run vertex v.
func (l *Labeling) Label(v dag.VertexID) Label { return l.snap.Label(v) }

// Origins returns each run vertex's specification vertex: the run's
// origin map without its graph. The slice is the labeling's own origin
// column, not a copy: run.NewNamerFromOrigins keeps it as the namer's
// origin column, so a stored run's vertex names cost no second column.
// Callers must not modify it.
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
// two labels alone: Lemma 4.5 on the positions (order.Context), and
// the skeleton query on the origins when the positions do not decide.
func (l *Labeling) ReachableLabels(a, b Label) bool {
	if reach, decided := order.Context(a.Q1, a.Q2, a.Q3, b.Q1, b.Q2, b.Q3); decided {
		return reach
	}
	return l.skeleton.Reachable(a.Orig, b.Orig)
}

// AnsweredByContext reports whether the query (u, v) is decided by the
// context encoding alone, without consulting the skeleton labels. Used by
// the experiments to explain why query time *drops* as runs grow when the
// skeleton labeling is search-based (Section 8.2).
func (l *Labeling) AnsweredByContext(u, v dag.VertexID) bool {
	a, b := l.snap.Label(u), l.snap.Label(v)
	_, decided := order.Context(a.Q1, a.Q2, a.Q3, b.Q1, b.Q2, b.Q3)
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
