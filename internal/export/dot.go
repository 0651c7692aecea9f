// Package export renders specifications, runs and execution plans as
// Graphviz DOT documents, with fork and loop regions drawn as clusters —
// matching the dotted-oval/back-edge notation of the paper's figures.
package export

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/run"
	"repro/internal/spec"
)

// SpecDOT renders the specification: fork subgraphs as dashed clusters
// around their internal vertices, loop subgraphs as dashed back-edges
// from sink to source.
func SpecDOT(w io.Writer, s *spec.Spec, name string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=circle];\n", nonEmpty(name, "specification"))
	// Nest fork clusters by hierarchy depth: emit clusters for forks.
	var emitNode func(h int, indent string)
	emitted := make(map[dag.VertexID]bool)
	emitNode = func(h int, indent string) {
		sub := s.SubgraphOf(h)
		if sub != nil && sub.Kind == spec.Fork {
			fmt.Fprintf(&b, "%ssubgraph cluster_f%d {\n%s  style=dashed; label=\"fork %s..%s\";\n",
				indent, h, indent, s.NameOf(sub.Source), s.NameOf(sub.Sink))
			indent += "  "
		}
		for _, c := range s.Hier.Children[h] {
			emitNode(c, indent)
		}
		for _, v := range s.DirectVertices(h) {
			if !emitted[v] {
				emitted[v] = true
				fmt.Fprintf(&b, "%s%q;\n", indent, s.NameOf(v))
			}
		}
		// Loop terminals (dominated by the loop) belong to its cluster
		// level; they are covered by DirectVertices of the loop node.
		if sub != nil && sub.Kind == spec.Fork {
			indent = indent[:len(indent)-2]
			fmt.Fprintf(&b, "%s}\n", indent)
		}
	}
	emitNode(0, "  ")
	// Any vertex not yet emitted (e.g. terminals shared across regions).
	for v := 0; v < s.NumVertices(); v++ {
		if !emitted[dag.VertexID(v)] {
			fmt.Fprintf(&b, "  %q;\n", s.NameOf(dag.VertexID(v)))
		}
	}
	for _, e := range s.Graph.Edges() {
		fmt.Fprintf(&b, "  %q -> %q;\n", s.NameOf(e.Tail), s.NameOf(e.Head))
	}
	for _, sub := range s.Subgraphs {
		if sub.Kind == spec.Loop {
			fmt.Fprintf(&b, "  %q -> %q [style=dashed, constraint=false, color=gray, label=loop];\n",
				s.NameOf(sub.Sink), s.NameOf(sub.Source))
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// RunDOT renders a run with occurrence names; when a plan is supplied,
// vertices are colored by the kind of their context (root, fork copy,
// loop copy).
func RunDOT(w io.Writer, r *run.Run, p *plan.Plan, name string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=circle];\n", nonEmpty(name, "run"))
	nm := run.NewNamer(r)
	for v := 0; v < r.NumVertices(); v++ {
		attrs := ""
		if p != nil {
			ctx := p.Context[v]
			switch {
			case ctx.IsRoot():
				attrs = ` [fillcolor=lightgray, style=filled]`
			case p.Spec.KindOf(ctx.HNode) == spec.Fork:
				attrs = ` [fillcolor=lightblue, style=filled]`
			default:
				attrs = ` [fillcolor=lightyellow, style=filled]`
			}
		}
		fmt.Fprintf(&b, "  %q%s;\n", nm.Name(dag.VertexID(v)), attrs)
	}
	for _, e := range r.Graph.Edges() {
		fmt.Fprintf(&b, "  %q -> %q;\n", nm.Name(e.Tail), nm.Name(e.Head))
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// PlanDOT renders an execution plan tree: + nodes as circles annotated
// with their subgraph, − nodes as boxes, loop − children connected in
// serial order.
func PlanDOT(w io.Writer, p *plan.Plan, name string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  node [fontsize=10];\n", nonEmpty(name, "plan"))
	labelOf := func(n *plan.Node) string {
		region := "G"
		if n.HNode != 0 {
			sub := p.Spec.SubgraphOf(n.HNode)
			region = fmt.Sprintf("%s %s..%s", sub.Kind, p.Spec.NameOf(sub.Source), p.Spec.NameOf(sub.Sink))
		}
		if n.Plus {
			return region + " +"
		}
		return region + " −"
	}
	for _, n := range p.Nodes {
		shape := "circle"
		if !n.Plus {
			shape = "box"
		}
		fmt.Fprintf(&b, "  n%d [label=%q, shape=%s];\n", n.ID, labelOf(n), shape)
	}
	for _, n := range p.Nodes {
		for i, c := range n.Children {
			attr := ""
			if !n.Plus && p.KindOf(n) == spec.Loop && i > 0 {
				attr = " [label=\"then\"]"
			}
			fmt.Fprintf(&b, "  n%d -> n%d%s;\n", n.ID, c.ID, attr)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func nonEmpty(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}
