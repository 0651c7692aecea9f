package spec

import (
	"fmt"
	"sort"

	"repro/internal/dag"
)

// Builder assembles a Spec incrementally. Methods record declarations;
// Build performs all validation and returns the immutable Spec.
type Builder struct {
	names  []ModuleName
	byName map[ModuleName]dag.VertexID
	edges  []dag.Edge
	decls  []subDecl
	err    error
}

type subDecl struct {
	kind    Kind
	source  ModuleName
	sink    ModuleName
	members []ModuleName // for Fork: internal vertices; for Loop: all vertices
	raw     []dag.Edge   // optional explicit edge set (by vertex id), overrides members
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{byName: make(map[ModuleName]dag.VertexID)}
}

// Module declares a module with the given unique name and returns its
// vertex ID. Redeclaring a name records an error reported by Build.
func (b *Builder) Module(name ModuleName) dag.VertexID {
	if _, dup := b.byName[name]; dup {
		b.fail(fmt.Errorf("spec: duplicate module name %q", name))
		return b.byName[name]
	}
	id := dag.VertexID(len(b.names))
	b.names = append(b.names, name)
	b.byName[name] = id
	return id
}

// Modules declares several modules at once.
func (b *Builder) Modules(names ...ModuleName) {
	for _, n := range names {
		b.Module(n)
	}
}

// Edge declares a data channel from module u to module v (by name).
// Unknown names are declared implicitly.
func (b *Builder) Edge(u, v ModuleName) {
	b.edges = append(b.edges, dag.Edge{Tail: b.ensure(u), Head: b.ensure(v)})
}

// Chain declares edges along the given module sequence.
func (b *Builder) Chain(names ...ModuleName) {
	for i := 0; i+1 < len(names); i++ {
		b.Edge(names[i], names[i+1])
	}
}

// Fork declares a fork subgraph with the given source, sink and internal
// vertices. Its edge set is the set of edges of G induced on
// {source} ∪ internal ∪ {sink}, excluding a direct (source, sink) edge
// (which, if present, is a parallel branch outside the fork).
func (b *Builder) Fork(source, sink ModuleName, internal ...ModuleName) {
	b.decls = append(b.decls, subDecl{kind: Fork, source: source, sink: sink, members: internal})
}

// Loop declares a loop subgraph with the given source, sink and internal
// vertices. Its edge set is the set of edges of G induced on
// {source} ∪ internal ∪ {sink}, including a direct (source, sink) edge if
// one exists (loops are complete and own every branch).
func (b *Builder) Loop(source, sink ModuleName, internal ...ModuleName) {
	b.decls = append(b.decls, subDecl{kind: Loop, source: source, sink: sink, members: internal})
}

// SubgraphEdges declares a fork or loop by an explicit edge set. This is
// an escape hatch for corner cases the induced-edge constructors cannot
// express; the edge set is validated like any other.
func (b *Builder) SubgraphEdges(kind Kind, edges []dag.Edge) {
	b.decls = append(b.decls, subDecl{kind: kind, raw: append([]dag.Edge(nil), edges...)})
}

// DeclaredEdges returns the edges declared so far as module-name pairs, in
// declaration order. Generators use it to avoid duplicating base edges.
func (b *Builder) DeclaredEdges() [][2]ModuleName {
	out := make([][2]ModuleName, len(b.edges))
	for i, e := range b.edges {
		out[i] = [2]ModuleName{b.names[e.Tail], b.names[e.Head]}
	}
	return out
}

func (b *Builder) ensure(name ModuleName) dag.VertexID {
	if id, ok := b.byName[name]; ok {
		return id
	}
	return b.Module(name)
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

// Build validates every declaration and returns the Spec.
func (b *Builder) Build() (*Spec, error) {
	if b.err != nil {
		return nil, b.err
	}
	n := len(b.names)
	seen := make(map[dag.Edge]bool, len(b.edges))
	for _, e := range b.edges {
		if e.Tail == e.Head {
			return nil, fmt.Errorf("spec: self loop on module %q", b.names[e.Tail])
		}
		if seen[e] {
			return nil, fmt.Errorf("spec: duplicate edge %q -> %q", b.names[e.Tail], b.names[e.Head])
		}
		seen[e] = true
	}
	// In declaration order: the adjacency lists keep it, and the plan
	// and the orders walk a module's children in that order.
	g := dag.FromEdges(n, b.edges)
	source, sink, err := g.FlowNetworkTerminals()
	if err != nil {
		return nil, err
	}

	subs := make([]*Subgraph, 0, len(b.decls))
	for _, d := range b.decls {
		sub, err := b.realizeDecl(g, d)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}

	s := &Spec{
		Graph:     g,
		Names:     append([]ModuleName(nil), b.names...),
		Source:    source,
		Sink:      sink,
		Subgraphs: subs,
		byName:    make(map[ModuleName]dag.VertexID, n),
	}
	for name, id := range b.byName {
		s.byName[name] = id
	}
	if err := Validate(s); err != nil {
		return nil, err
	}
	return s, nil
}

// MustBuild is Build that panics on error, for tests and examples.
func (b *Builder) MustBuild() *Spec {
	s, err := b.Build()
	if err != nil {
		panic(err)
	}
	return s
}

func (b *Builder) realizeDecl(g *dag.Graph, d subDecl) (*Subgraph, error) {
	var edges []dag.Edge
	if d.raw != nil {
		edges = d.raw
	} else {
		src, ok := b.byName[d.source]
		if !ok {
			return nil, fmt.Errorf("spec: %s references unknown source module %q", d.kind, d.source)
		}
		snk, ok := b.byName[d.sink]
		if !ok {
			return nil, fmt.Errorf("spec: %s references unknown sink module %q", d.kind, d.sink)
		}
		members := map[dag.VertexID]bool{src: true, snk: true}
		for _, m := range d.members {
			v, ok := b.byName[m]
			if !ok {
				return nil, fmt.Errorf("spec: %s references unknown member module %q", d.kind, m)
			}
			members[v] = true
		}
		for _, e := range g.Edges() {
			if !members[e.Tail] || !members[e.Head] {
				continue
			}
			if d.kind == Fork && e.Tail == src && e.Head == snk {
				continue // direct (s,t) edge is a parallel branch, not part of the fork
			}
			edges = append(edges, e)
		}
	}
	return newSubgraph(d.kind, edges)
}

// newSubgraph derives the vertex sets and terminals of a subgraph from its
// edge set and performs the purely local structural checks.
func newSubgraph(kind Kind, edges []dag.Edge) (*Subgraph, error) {
	if len(edges) == 0 {
		return nil, fmt.Errorf("spec: %s subgraph has no edges", kind)
	}
	sorted := append([]dag.Edge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Tail != sorted[j].Tail {
			return sorted[i].Tail < sorted[j].Tail
		}
		return sorted[i].Head < sorted[j].Head
	})
	inDeg := make(map[dag.VertexID]int)
	outDeg := make(map[dag.VertexID]int)
	vset := make(map[dag.VertexID]bool)
	for _, e := range sorted {
		vset[e.Tail] = true
		vset[e.Head] = true
		outDeg[e.Tail]++
		inDeg[e.Head]++
	}
	var sources, sinks []dag.VertexID
	for v := range vset {
		if inDeg[v] == 0 {
			sources = append(sources, v)
		}
		if outDeg[v] == 0 {
			sinks = append(sinks, v)
		}
	}
	if len(sources) != 1 || len(sinks) != 1 {
		return nil, fmt.Errorf("spec: %s subgraph must have exactly one source and one sink (got %d, %d)",
			kind, len(sources), len(sinks))
	}
	src, snk := sources[0], sinks[0]
	if src == snk {
		return nil, fmt.Errorf("spec: %s subgraph has identical source and sink", kind)
	}
	vertices := make([]dag.VertexID, 0, len(vset))
	for v := range vset {
		vertices = append(vertices, v)
	}
	sort.Slice(vertices, func(i, j int) bool { return vertices[i] < vertices[j] })
	internal := make([]dag.VertexID, 0, len(vertices))
	for _, v := range vertices {
		if v != src && v != snk {
			internal = append(internal, v)
		}
	}
	if kind == Fork && len(internal) == 0 {
		return nil, fmt.Errorf("spec: fork subgraph must have at least one internal vertex " +
			"(a bare edge fork would replicate into parallel edges)")
	}
	return &Subgraph{
		Kind:     kind,
		Source:   src,
		Sink:     snk,
		Edges:    sorted,
		Vertices: vertices,
		Internal: internal,
	}, nil
}
