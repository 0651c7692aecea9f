package plan

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/spec"
)

// This file keeps the plan constructor that predates the edge arena,
// unchanged except for its identifiers, as the oracle
// TestConstructMatchesOracle holds Construct to: the same node IDs,
// Children order, contexts and error text on every input. Each edge is
// a heap *oracleEdge and each vertex keeps its in- and out-edges in
// growing slices.

func constructOracle(s *spec.Spec, g *dag.Graph, origin []dag.VertexID) (*Plan, error) {
	if len(origin) != g.NumVertices() {
		return nil, fmt.Errorf("plan: %d origins for %d vertices", len(origin), g.NumVertices())
	}
	c := newOracleConstructor(s, g, origin)
	return c.run()
}

// oracleEdge is an edge of the progressively collapsed run graph.
type oracleEdge struct {
	tail, head dag.VertexID
	deleted    bool
	collected  bool
	// copyPlus is set on the special edge standing for one collapsed copy
	// (between the collapse and grouping steps of a level).
	copyPlus *Node
	// group is set on the special edge standing for all copies at a site.
	group *Node
	// hnode is the hierarchy node of the collapse (0 for original edges).
	hnode int
	// leaderFor is the hierarchy node this group edge seeds, or -1.
	leaderFor int
}

type oracleConstructor struct {
	s      *spec.Spec
	g      *dag.Graph
	origin []dag.VertexID

	p   *Plan
	out [][]*oracleEdge
	in  [][]*oracleEdge

	// member[h] marks the specification vertices in V(H) of hierarchy
	// node h (all vertices for the root).
	member []*bitset.Set
	// leaderChild[h] is the child hierarchy node designated as leader for
	// internal node h, or 0.
	leaderChild []int
	// seeds[h] collects the seed edges for copies of hierarchy node h.
	seeds [][]*oracleEdge

	// DFS scratch.
	visited  []uint32
	gen      uint32
	frontier []dag.VertexID
}

func newOracleConstructor(s *spec.Spec, g *dag.Graph, origin []dag.VertexID) *oracleConstructor {
	n := g.NumVertices()
	c := &oracleConstructor{
		s:       s,
		g:       g,
		origin:  origin,
		p:       &Plan{Spec: s, Context: make([]*Node, n)},
		out:     make([][]*oracleEdge, n),
		in:      make([][]*oracleEdge, n),
		seeds:   make([][]*oracleEdge, s.Hier.NumNodes()),
		visited: make([]uint32, n),
	}
	for _, e := range g.Edges() {
		we := &oracleEdge{tail: e.Tail, head: e.Head, leaderFor: -1}
		c.out[e.Tail] = append(c.out[e.Tail], we)
		c.in[e.Head] = append(c.in[e.Head], we)
	}
	nSpec := s.Graph.NumVertices()
	c.member = make([]*bitset.Set, s.Hier.NumNodes())
	all := bitset.New(nSpec)
	for v := 0; v < nSpec; v++ {
		all.Set(v)
	}
	c.member[0] = all
	for i, sub := range s.Subgraphs {
		b := bitset.New(nSpec)
		for _, v := range sub.Vertices {
			b.Set(int(v))
		}
		c.member[i+1] = b
	}
	c.leaderChild = make([]int, s.Hier.NumNodes())
	for h := 0; h < s.Hier.NumNodes(); h++ {
		if kids := s.Hier.Children[h]; len(kids) > 0 {
			c.leaderChild[h] = kids[0]
		}
	}
	return c
}

// newDetached creates a plan node without linking it to a parent.
func (c *oracleConstructor) newDetached(plus bool, hnode int) *Node {
	n := &Node{ID: len(c.p.Nodes), Plus: plus, HNode: hnode}
	c.p.Nodes = append(c.p.Nodes, n)
	return n
}

func oracleLink(parent, child *Node) {
	child.Parent = parent
	parent.Children = append(parent.Children, child)
}

func (c *oracleConstructor) addEdge(we *oracleEdge) {
	c.out[we.tail] = append(c.out[we.tail], we)
	c.in[we.head] = append(c.in[we.head], we)
}

// oracleCompactIter invokes fn on each live edge of list, removing deleted edges
// as it goes, and returns the compacted list.
func oracleCompactIter(list []*oracleEdge, fn func(*oracleEdge)) []*oracleEdge {
	w := 0
	for _, e := range list {
		if e.deleted {
			continue
		}
		list[w] = e
		w++
		fn(e)
	}
	return list[:w]
}

func (c *oracleConstructor) run() (*Plan, error) {
	// Initial scan: seeds for every leaf subgraph are the run edges whose
	// origin pair equals the leaf's designated leader edge.
	leafLeader := make(map[dag.Edge]int)
	for i, sub := range c.s.Subgraphs {
		h := i + 1
		if len(c.s.Hier.Children[h]) == 0 {
			leafLeader[sub.Edges[0]] = h
		}
	}
	if len(leafLeader) > 0 {
		for v := range c.out {
			for _, we := range c.out[v] {
				key := dag.Edge{Tail: c.origin[we.tail], Head: c.origin[we.head]}
				if h, ok := leafLeader[key]; ok {
					c.seeds[h] = append(c.seeds[h], we)
				}
			}
		}
	}

	for d := c.s.Hier.MaxDepth; d >= 2; d-- {
		for _, h := range c.s.Hier.NodesAtDepth(d) {
			if err := c.processSubgraph(h); err != nil {
				return nil, err
			}
		}
	}
	return c.finishRoot()
}

// processSubgraph collapses every copy of hierarchy node h and groups the
// copies into − nodes.
func (c *oracleConstructor) processSubgraph(h int) error {
	kind := c.s.KindOf(h)
	var copyEdges []*oracleEdge
	for _, seed := range c.seeds[h] {
		if seed.deleted || seed.collected {
			continue // consumed while collapsing an earlier copy (conformance errors only)
		}
		ce, err := c.collapseCopy(h, seed)
		if err != nil {
			return err
		}
		copyEdges = append(copyEdges, ce)
	}
	c.seeds[h] = nil
	if len(copyEdges) == 0 {
		return fmt.Errorf("plan: no copies of %s %q..%q found in run",
			kind, c.s.NameOf(c.s.SourceOf(h)), c.s.NameOf(c.s.SinkOf(h)))
	}
	if kind == spec.Fork {
		return c.groupForks(h, copyEdges)
	}
	return c.groupLoops(h, copyEdges)
}

// collapseCopy explores the copy of h containing the seed edge, creates
// its + node, attaches the group nodes of nested sites, assigns contexts,
// and replaces the copy's edges by a special copy edge.
func (c *oracleConstructor) collapseCopy(h int, seed *oracleEdge) (*oracleEdge, error) {
	srcOrig := c.s.SourceOf(h)
	snkOrig := c.s.SinkOf(h)
	kind := c.s.KindOf(h)
	memb := c.member[h]

	plus := c.newDetached(true, h)

	c.gen++
	if c.gen == 0 {
		for i := range c.visited {
			c.visited[i] = 0
		}
		c.gen = 1
	}
	var sTerm, tTerm dag.VertexID = -1, -1
	collected := []*oracleEdge{seed}
	seed.collected = true
	c.frontier = c.frontier[:0]

	arrive := func(v dag.VertexID) error {
		if c.visited[v] == c.gen {
			return nil
		}
		c.visited[v] = c.gen
		o := c.origin[v]
		if !memb.Test(int(o)) {
			return fmt.Errorf("plan: search for %s %q..%q escaped to vertex with origin %q — run does not conform",
				kind, c.s.NameOf(srcOrig), c.s.NameOf(snkOrig), c.s.NameOf(o))
		}
		switch o {
		case srcOrig:
			if sTerm >= 0 && sTerm != v {
				return fmt.Errorf("plan: copy of %s %q..%q has two sources", kind, c.s.NameOf(srcOrig), c.s.NameOf(snkOrig))
			}
			sTerm = v
		case snkOrig:
			if tTerm >= 0 && tTerm != v {
				return fmt.Errorf("plan: copy of %s %q..%q has two sinks", kind, c.s.NameOf(srcOrig), c.s.NameOf(snkOrig))
			}
			tTerm = v
		}
		c.frontier = append(c.frontier, v)
		return nil
	}
	if err := arrive(seed.tail); err != nil {
		return nil, err
	}
	if err := arrive(seed.head); err != nil {
		return nil, err
	}

	for len(c.frontier) > 0 {
		v := c.frontier[len(c.frontier)-1]
		c.frontier = c.frontier[:len(c.frontier)-1]
		o := c.origin[v]
		expandOut := true
		expandIn := true
		if o == srcOrig {
			if kind == spec.Fork {
				expandOut, expandIn = false, false
			} else {
				expandIn = false // only source-outgoing edges stay inside the loop copy
			}
		} else if o == snkOrig {
			if kind == spec.Fork {
				expandOut, expandIn = false, false
			} else {
				expandOut = false // only sink-incoming edges stay inside the loop copy
			}
		}
		var err error
		visit := func(we *oracleEdge, other dag.VertexID) {
			if err != nil || we.collected {
				return
			}
			we.collected = true
			collected = append(collected, we)
			err = arrive(other)
		}
		if expandOut {
			c.out[v] = oracleCompactIter(c.out[v], func(we *oracleEdge) { visit(we, we.head) })
		}
		if expandIn {
			c.in[v] = oracleCompactIter(c.in[v], func(we *oracleEdge) { visit(we, we.tail) })
		}
		if err != nil {
			return nil, err
		}
	}

	if sTerm < 0 || tTerm < 0 {
		return nil, fmt.Errorf("plan: copy of %s %q..%q has no source or sink — run does not conform",
			kind, c.s.NameOf(srcOrig), c.s.NameOf(snkOrig))
	}

	// Attach nested sites, assign contexts, delete the copy's edges.
	for _, we := range collected {
		if we.group != nil {
			oracleLink(plus, we.group)
		}
		we.deleted = true
	}
	// Context assignment: every visited vertex without a context belongs
	// to this copy; fork copies do not own their terminals.
	assign := func(v dag.VertexID) {
		if c.p.Context[v] == nil {
			c.p.Context[v] = plus
		}
	}
	for _, we := range collected {
		for _, v := range [2]dag.VertexID{we.tail, we.head} {
			if kind == spec.Fork && (v == sTerm || v == tTerm) {
				continue
			}
			assign(v)
		}
	}

	ce := &oracleEdge{tail: sTerm, head: tTerm, copyPlus: plus, hnode: h, leaderFor: -1}
	c.addEdge(ce)
	return ce, nil
}

// groupForks merges parallel copy edges sharing both endpoints into F−
// nodes and replaces each bucket with one group edge.
func (c *oracleConstructor) groupForks(h int, copyEdges []*oracleEdge) error {
	type key struct{ s, t dag.VertexID }
	buckets := make(map[key][]*oracleEdge)
	order := make([]key, 0, len(copyEdges))
	for _, ce := range copyEdges {
		k := key{ce.tail, ce.head}
		if _, ok := buckets[k]; !ok {
			order = append(order, k)
		}
		buckets[k] = append(buckets[k], ce)
	}
	for _, k := range order {
		minus := c.newDetached(false, h)
		for _, ce := range buckets[k] {
			oracleLink(minus, ce.copyPlus)
			ce.deleted = true
		}
		c.emitGroupEdge(h, minus, k.s, k.t)
	}
	return nil
}

// groupLoops chains serial copy edges through their connector edges into
// ordered L− nodes and replaces each chain with one group edge.
func (c *oracleConstructor) groupLoops(h int, copyEdges []*oracleEdge) error {
	srcOrig := c.s.SourceOf(h)
	bySource := make(map[dag.VertexID]*oracleEdge, len(copyEdges))
	for _, ce := range copyEdges {
		bySource[ce.tail] = ce
	}
	next := make(map[*oracleEdge]*oracleEdge, len(copyEdges))
	connectors := make(map[*oracleEdge]*oracleEdge, len(copyEdges))
	hasPred := make(map[*oracleEdge]bool, len(copyEdges))
	for _, ce := range copyEdges {
		// The connector, if any, is the unique out-edge of the copy's sink
		// leading to a vertex originating from the loop source.
		var conn *oracleEdge
		c.out[ce.head] = oracleCompactIter(c.out[ce.head], func(we *oracleEdge) {
			if we == ce || we.collected {
				return
			}
			if c.origin[we.head] == srcOrig {
				conn = we
			}
		})
		if conn == nil {
			continue
		}
		nxt, ok := bySource[conn.head]
		if !ok || nxt == ce {
			return fmt.Errorf("plan: loop %q..%q has a connector to a non-copy vertex",
				c.s.NameOf(srcOrig), c.s.NameOf(c.s.SinkOf(h)))
		}
		next[ce] = nxt
		connectors[ce] = conn
		hasPred[nxt] = true
	}
	chained := 0
	for _, head := range copyEdges {
		if hasPred[head] {
			continue
		}
		minus := c.newDetached(false, h)
		first, last := head, head
		for ce := head; ce != nil; ce = next[ce] {
			oracleLink(minus, ce.copyPlus)
			ce.deleted = true
			if conn := connectors[ce]; conn != nil {
				conn.deleted = true
			}
			last = ce
			chained++
			if chained > len(copyEdges) {
				return fmt.Errorf("plan: loop %q..%q chain is cyclic", c.s.NameOf(srcOrig), c.s.NameOf(c.s.SinkOf(h)))
			}
		}
		c.emitGroupEdge(h, minus, first.tail, last.head)
	}
	if chained != len(copyEdges) {
		return fmt.Errorf("plan: loop %q..%q chains cover %d of %d copies",
			c.s.NameOf(srcOrig), c.s.NameOf(c.s.SinkOf(h)), chained, len(copyEdges))
	}
	return nil
}

func (c *oracleConstructor) emitGroupEdge(h int, minus *Node, sV, tV dag.VertexID) {
	ge := &oracleEdge{tail: sV, head: tV, group: minus, hnode: h, leaderFor: -1}
	parent := c.s.Hier.Parent[h]
	if parent > 0 && c.leaderChild[parent] == h {
		ge.leaderFor = parent
		c.seeds[parent] = append(c.seeds[parent], ge)
	}
	c.addEdge(ge)
}

// finishRoot assigns the root context to every remaining vertex, attaches
// the surviving group edges to the root + node, and validates leftovers.
func (c *oracleConstructor) finishRoot() (*Plan, error) {
	root := c.newDetached(true, 0)
	c.p.Root = root
	for v := range c.out {
		c.out[v] = oracleCompactIter(c.out[v], func(we *oracleEdge) {
			if we.group != nil && we.group.Parent == nil {
				oracleLink(root, we.group)
			}
		})
	}
	for v, ctx := range c.p.Context {
		if ctx == nil {
			c.p.Context[v] = root
		}
	}
	// Conformance: no ungrouped copy edges may survive.
	for v := range c.out {
		for _, we := range c.out[v] {
			if we.copyPlus != nil && we.group == nil && !we.deleted {
				return nil, fmt.Errorf("plan: ungrouped copy of hierarchy node %d survived to the root", we.hnode)
			}
		}
	}
	return c.p, nil
}
