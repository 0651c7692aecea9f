package spec

import (
	"fmt"
	"sort"

	"repro/internal/dag"
)

// Validate checks every model constraint of Definitions 1–3 against the
// specification and populates s.Hier (the fork-and-loop hierarchy T_G).
// It is called by Builder.Build and may be called directly on specs
// assembled by hand (e.g. after XML decoding).
func Validate(s *Spec) error {
	if s.Graph == nil {
		return fmt.Errorf("spec: nil graph")
	}
	n := s.Graph.NumVertices()
	if len(s.Names) != n {
		return fmt.Errorf("spec: %d names for %d vertices", len(s.Names), n)
	}
	seen := make(map[ModuleName]bool, n)
	for v, name := range s.Names {
		if name == "" {
			return fmt.Errorf("spec: vertex %d has empty module name", v)
		}
		if seen[name] {
			return fmt.Errorf("spec: duplicate module name %q", name)
		}
		seen[name] = true
	}
	src, snk, err := s.Graph.FlowNetworkTerminals()
	if err != nil {
		return err
	}
	if src != s.Source || snk != s.Sink {
		return fmt.Errorf("spec: declared terminals (%d,%d) do not match graph terminals (%d,%d)",
			s.Source, s.Sink, src, snk)
	}
	if s.byName == nil {
		s.byName = make(map[ModuleName]dag.VertexID, n)
		for v, name := range s.Names {
			s.byName[name] = dag.VertexID(v)
		}
	}

	for i, sub := range s.Subgraphs {
		if err := s.checkSelfContained(sub); err != nil {
			return fmt.Errorf("spec: subgraph %d (%s %q..%q): %w",
				i, sub.Kind, s.Names[sub.Source], s.Names[sub.Sink], err)
		}
		switch sub.Kind {
		case Fork:
			if err := s.checkAtomic(sub); err != nil {
				return fmt.Errorf("spec: fork %d (%q..%q): %w", i, s.Names[sub.Source], s.Names[sub.Sink], err)
			}
		case Loop:
			if err := s.checkComplete(sub); err != nil {
				return fmt.Errorf("spec: loop %d (%q..%q): %w", i, s.Names[sub.Source], s.Names[sub.Sink], err)
			}
		default:
			return fmt.Errorf("spec: subgraph %d has invalid kind %d", i, sub.Kind)
		}
	}

	if err := s.checkWellNested(); err != nil {
		return err
	}
	hier, err := s.buildHierarchy()
	if err != nil {
		return err
	}
	s.Hier = hier
	s.pairs, s.regions = s.buildPairs(), s.regionSets()
	s.direct, s.directEdges = s.directTables()
	return nil
}

// checkSelfContained verifies Definition 1 for subgraph H: single source
// and sink (established structurally by newSubgraph), no edges crossing the
// boundary through internal vertices, and every edge of G induced on V(H)
// is in E(H) except possibly a direct (source, sink) edge.
func (s *Spec) checkSelfContained(sub *Subgraph) error {
	inH := make(map[dag.VertexID]bool, len(sub.Vertices))
	for _, v := range sub.Vertices {
		inH[v] = true
	}
	for _, u := range sub.Internal {
		for _, w := range s.Graph.Out(u) {
			if !inH[w] {
				return fmt.Errorf("internal vertex %q has edge to outside vertex %q", s.Names[u], s.Names[w])
			}
		}
		for _, w := range s.Graph.In(u) {
			if !inH[w] {
				return fmt.Errorf("internal vertex %q has edge from outside vertex %q", s.Names[u], s.Names[w])
			}
		}
	}
	for _, e := range s.Graph.Edges() {
		if inH[e.Tail] && inH[e.Head] && !sub.HasEdge(e.Tail, e.Head) {
			if e.Tail == sub.Source && e.Head == sub.Sink {
				continue // Definition 1(3) permits only the direct (s,t) edge
			}
			return fmt.Errorf("induced edge %q -> %q missing from subgraph edge set",
				s.Names[e.Tail], s.Names[e.Head])
		}
	}
	for _, e := range sub.Edges {
		if !s.Graph.HasEdge(e.Tail, e.Head) {
			return fmt.Errorf("subgraph edge %d -> %d does not exist in G", e.Tail, e.Head)
		}
	}
	return nil
}

// checkAtomic verifies that a fork is a single branch: no self-contained
// subgraph with the same terminals and a strictly smaller edge set exists.
// Given self-containment this reduces to (a) no direct (s,t) edge inside
// the fork and (b) the internal vertices form one weakly connected block.
func (s *Spec) checkAtomic(sub *Subgraph) error {
	if sub.HasEdge(sub.Source, sub.Sink) {
		return fmt.Errorf("not atomic: contains a direct source->sink edge (a splittable parallel branch)")
	}
	if len(sub.Internal) == 0 {
		return fmt.Errorf("fork has no internal vertices")
	}
	// Weak connectivity of V*(H) using only edges of H between internals.
	idx := make(map[dag.VertexID]int, len(sub.Internal))
	for i, v := range sub.Internal {
		idx[v] = i
	}
	adj := make([][]int, len(sub.Internal))
	for _, e := range sub.Edges {
		i, iok := idx[e.Tail]
		j, jok := idx[e.Head]
		if iok && jok {
			adj[i] = append(adj[i], j)
			adj[j] = append(adj[j], i)
		}
	}
	seen := make([]bool, len(sub.Internal))
	stack := []int{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, y := range adj[x] {
			if !seen[y] {
				seen[y] = true
				count++
				stack = append(stack, y)
			}
		}
	}
	if count != len(sub.Internal) {
		return fmt.Errorf("not atomic: internal vertices split into parallel branches")
	}
	return nil
}

// checkComplete verifies Definition 1's completeness condition for loops:
// no edge (s(H), v) or (v, t(H)) leaves or enters through the terminals to
// vertices outside H.
func (s *Spec) checkComplete(sub *Subgraph) error {
	inH := make(map[dag.VertexID]bool, len(sub.Vertices))
	for _, v := range sub.Vertices {
		inH[v] = true
	}
	for _, w := range s.Graph.Out(sub.Source) {
		if !inH[w] {
			return fmt.Errorf("not complete: source %q has edge to outside vertex %q",
				s.Names[sub.Source], s.Names[w])
		}
	}
	for _, w := range s.Graph.In(sub.Sink) {
		if !inH[w] {
			return fmt.Errorf("not complete: sink %q has edge from outside vertex %q",
				s.Names[sub.Sink], s.Names[w])
		}
	}
	return nil
}

// checkWellNested verifies Definition 2: for every pair of subgraphs,
// exactly one of {H1 nested in H2, H2 nested in H1, fully disjoint} holds,
// comparing both dominated vertex sets and edge sets.
//
// Nesting uses non-strict edge containment with the dominated sets breaking
// ties: in the paper's own running example, fork F2 and loop L2 share the
// same edge set, and F2 is nested in L2 because DomSet(F2) = V*(F2) is a
// strict subset of DomSet(L2) = V(L2). Two subgraphs with identical edge
// sets AND identical dominated sets are duplicates and rejected.
func (s *Spec) checkWellNested() error {
	type sets struct {
		dom   map[dag.VertexID]bool
		edges map[dag.Edge]bool
	}
	all := make([]sets, len(s.Subgraphs))
	for i, sub := range s.Subgraphs {
		d := make(map[dag.VertexID]bool)
		for _, v := range sub.DomSet() {
			d[v] = true
		}
		e := make(map[dag.Edge]bool)
		for _, ed := range sub.Edges {
			e[ed] = true
		}
		all[i] = sets{dom: d, edges: e}
	}
	subsetV := func(a, b map[dag.VertexID]bool) bool {
		for v := range a {
			if !b[v] {
				return false
			}
		}
		return true
	}
	subsetE := func(a, b map[dag.Edge]bool) bool {
		for e := range a {
			if !b[e] {
				return false
			}
		}
		return true
	}
	disjointV := func(a, b map[dag.VertexID]bool) bool {
		for v := range a {
			if b[v] {
				return false
			}
		}
		return true
	}
	disjointE := func(a, b map[dag.Edge]bool) bool {
		for e := range a {
			if b[e] {
				return false
			}
		}
		return true
	}
	nested := func(a, b sets) bool {
		if !subsetV(a.dom, b.dom) || !subsetE(a.edges, b.edges) {
			return false
		}
		return len(a.edges) < len(b.edges) || len(a.dom) < len(b.dom)
	}
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			a, b := all[i], all[j]
			if len(a.edges) == len(b.edges) && subsetE(a.edges, b.edges) &&
				len(a.dom) == len(b.dom) && subsetV(a.dom, b.dom) {
				return fmt.Errorf("spec: subgraphs %d and %d are duplicates", i, j)
			}
			count := 0
			for _, c := range []bool{nested(a, b), nested(b, a), disjointV(a.dom, b.dom) && disjointE(a.edges, b.edges)} {
				if c {
					count++
				}
			}
			if count != 1 {
				return fmt.Errorf("spec: subgraphs %d and %d are not well-nested", i, j)
			}
		}
	}
	return nil
}

// buildHierarchy derives T_G: each subgraph's parent is the smallest
// subgraph properly containing it (edge containment, with dominated-set
// size breaking fork-inside-loop ties on equal edge sets), or the root.
func (s *Spec) buildHierarchy() (*Hierarchy, error) {
	k := len(s.Subgraphs)
	contains := func(outer, inner *Subgraph) bool {
		if len(outer.Edges) < len(inner.Edges) {
			return false
		}
		for _, e := range inner.Edges {
			if !outer.HasEdge(e.Tail, e.Head) {
				return false
			}
		}
		if len(outer.Edges) > len(inner.Edges) {
			return true
		}
		// Equal edge sets: the loop contains the fork (strictly larger DomSet).
		return len(outer.DomSet()) > len(inner.DomSet())
	}
	parent := make([]int, k+1)
	parent[0] = -1
	for i, sub := range s.Subgraphs {
		best := 0
		bestEdges := s.Graph.NumEdges() + 1
		bestDom := s.Graph.NumVertices() + 1
		for j, other := range s.Subgraphs {
			if i == j || !contains(other, sub) {
				continue
			}
			if len(other.Edges) < bestEdges ||
				(len(other.Edges) == bestEdges && len(other.DomSet()) < bestDom) {
				best = j + 1
				bestEdges = len(other.Edges)
				bestDom = len(other.DomSet())
			}
		}
		parent[i+1] = best
	}
	children := make([][]int, k+1)
	for node := 1; node <= k; node++ {
		p := parent[node]
		children[p] = append(children[p], node)
	}
	index := make([]int, k+1)
	for i := range children {
		sort.Ints(children[i])
		for j, c := range children[i] {
			index[c] = j
		}
	}
	depth := make([]int, k+1)
	maxDepth := 1
	var assign func(node, d int)
	assign = func(node, d int) {
		depth[node] = d
		if d > maxDepth {
			maxDepth = d
		}
		for _, c := range children[node] {
			assign(c, d+1)
		}
	}
	assign(0, 1)
	for node := 1; node <= k; node++ {
		if depth[node] == 0 {
			return nil, fmt.Errorf("spec: hierarchy node %d disconnected from root", node)
		}
	}
	byDepth := make([][]int, maxDepth+1)
	for node := 0; node <= k; node++ {
		d := depth[node]
		byDepth[d] = append(byDepth[d], node)
	}
	return &Hierarchy{
		Parent:   parent,
		Children: children,
		Index:    index,
		Depth:    depth,
		MaxDepth: maxDepth,
		byDepth:  byDepth,
	}, nil
}
