// Package plan implements execution plans (the tree T_R of Section 4.1)
// and the linear-time ConstructPlan algorithm of Section 5, which recovers
// the execution plan and the context function of a run from the run graph
// alone, given its specification and fork-and-loop hierarchy.
package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dag"
	"repro/internal/spec"
)

// Node is a node of an execution plan T_R.
//
// A Plus node corresponds to a single copy of a fork or loop subgraph (or,
// for the root, to the entire run); a Minus node corresponds to all copies
// of one subgraph at one site, combined in parallel (forks) or in series
// (loops). Children of a loop Minus node are ordered by serial position;
// children of every other node are unordered (the stored order is an
// arbitrary fixed choice).
type Node struct {
	// ID is the node's index in Plan.Nodes.
	ID int
	// Plus is true for + nodes (single copies) and false for − nodes.
	Plus bool
	// HNode is the specification hierarchy node (T_G index) this node
	// instantiates; 0 is the root region.
	HNode int
	// Parent is nil for the root.
	Parent *Node
	// Children are ordered for loop − nodes, arbitrary otherwise.
	Children []*Node
}

// IsRoot reports whether n is the plan root (the G+ node).
func (n *Node) IsRoot() bool { return n.Parent == nil }

// Plan is an execution plan T_R together with the context function C
// mapping each run vertex to its deepest dominating + node (Def. 9).
type Plan struct {
	Spec *spec.Spec
	// Root is the G+ node.
	Root *Node
	// Nodes lists every node; Nodes[i].ID == i.
	Nodes []*Node
	// Context maps each run vertex to its context (always a + node).
	Context []*Node
}

// NumPlus returns the number of + nodes.
func (p *Plan) NumPlus() int {
	c := 0
	for _, n := range p.Nodes {
		if n.Plus {
			c++
		}
	}
	return c
}

// NonEmptyPlus returns the + nodes that are the context of at least one run
// vertex, in Nodes order.
func (p *Plan) NonEmptyPlus() []*Node {
	occupied := make([]bool, len(p.Nodes))
	for _, n := range p.Context {
		if n != nil {
			occupied[n.ID] = true
		}
	}
	var out []*Node
	for _, n := range p.Nodes {
		if n.Plus && occupied[n.ID] {
			out = append(out, n)
		}
	}
	return out
}

// KindOf returns the subgraph kind of the node's hierarchy entry; the root
// behaves like a loop (it dominates its terminals).
func (p *Plan) KindOf(n *Node) spec.Kind { return p.Spec.KindOf(n.HNode) }

// Validate checks the structural invariants of the plan against the run it
// describes:
//
//   - the root is a + node for hierarchy node 0;
//   - + and − nodes alternate by level, and a node's HNode is a hierarchy
//     child of its parent's HNode;
//   - every − node has at least one child and every child is a + node of
//     the same HNode;
//   - every run vertex has a + context;
//   - the size bound of Lemma 4.2: |V(T_R)| <= 4·|E(R)| (for runs with at
//     least one edge).
func (p *Plan) Validate(g *dag.Graph) error {
	if p.Root == nil || !p.Root.Plus || p.Root.HNode != 0 {
		return fmt.Errorf("plan: bad root")
	}
	if len(p.Context) != g.NumVertices() {
		return fmt.Errorf("plan: context covers %d vertices, run has %d", len(p.Context), g.NumVertices())
	}
	for i, n := range p.Nodes {
		if n.ID != i {
			return fmt.Errorf("plan: node %d has ID %d", i, n.ID)
		}
		if n.Parent == nil && n != p.Root {
			return fmt.Errorf("plan: node %d detached from root", i)
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("plan: node %d child %d has wrong parent", n.ID, c.ID)
			}
			if c.Plus == n.Plus {
				return fmt.Errorf("plan: node %d and child %d have the same polarity", n.ID, c.ID)
			}
			if n.Plus {
				// Child is a − node for a hierarchy child of n.HNode.
				if p.Spec.Hier.Parent[c.HNode] != n.HNode {
					return fmt.Errorf("plan: − node %d (H %d) under + node %d (H %d) is not a hierarchy child",
						c.ID, c.HNode, n.ID, n.HNode)
				}
			} else if c.HNode != n.HNode {
				return fmt.Errorf("plan: + node %d under − node %d changes hierarchy node", c.ID, n.ID)
			}
		}
		if !n.Plus && len(n.Children) == 0 {
			return fmt.Errorf("plan: − node %d has no copies", n.ID)
		}
	}
	for v, c := range p.Context {
		if c == nil {
			return fmt.Errorf("plan: vertex %d has no context", v)
		}
		if !c.Plus {
			return fmt.Errorf("plan: vertex %d has − context %d", v, c.ID)
		}
	}
	if g.NumEdges() > 0 && len(p.Nodes) > 4*g.NumEdges() {
		return fmt.Errorf("plan: %d nodes exceeds Lemma 4.2 bound 4·|E(R)| = %d",
			len(p.Nodes), 4*g.NumEdges())
	}
	return nil
}

// Canonical returns a canonical string form of the plan, independent of
// the arbitrary child order of unordered nodes, and incorporating the
// context assignment. Two plans over the same run are semantically
// identical iff their canonical forms are equal.
func (p *Plan) Canonical() string {
	byNode := make([][]int, len(p.Nodes))
	for v, c := range p.Context {
		if c != nil {
			byNode[c.ID] = append(byNode[c.ID], v)
		}
	}
	var render func(n *Node) string
	render = func(n *Node) string {
		kids := make([]string, len(n.Children))
		for i, c := range n.Children {
			kids[i] = render(c)
		}
		ordered := !n.Plus && p.KindOf(n) == spec.Loop
		if !ordered {
			sort.Strings(kids)
		}
		var b strings.Builder
		if n.Plus {
			b.WriteByte('+')
		} else {
			b.WriteByte('-')
		}
		fmt.Fprintf(&b, "%d", n.HNode)
		if vs := byNode[n.ID]; len(vs) > 0 {
			sort.Ints(vs)
			fmt.Fprintf(&b, "%v", vs)
		}
		b.WriteByte('(')
		b.WriteString(strings.Join(kids, ","))
		b.WriteByte(')')
		return b.String()
	}
	return render(p.Root)
}

// String renders a compact indented tree for debugging.
func (p *Plan) String() string {
	var b strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		sign := "-"
		if n.Plus {
			sign = "+"
		}
		fmt.Fprintf(&b, "%s H%d (node %d)\n", sign, n.HNode, n.ID)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(p.Root, 0)
	return b.String()
}
