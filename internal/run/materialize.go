package run

import (
	"fmt"

	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/spec"
)

// CopyTable is an execution tree in the form a workflow engine's log
// gives it: one row per copy, in start order. Copy 0 is the run itself
// (HNode 0, Parent -1); every other copy c is a copy of hierarchy node
// HNode[c] started inside copy Parent[c], with Parent[c] < c. The copies
// at one site, one parent copy's copies of one hierarchy child, are in
// serial order of their numbers.
type CopyTable struct {
	HNode  []int32
	Parent []int32
}

// Materialize builds the run graph described by an execution tree,
// following Lemma 4.1 bottom-up: a copy of a region instantiates its
// direct vertices and edges, loop sites chain their copies with serial
// connector edges, and fork sites attach all copies to the shared terminal
// vertices of the enclosing copy.
//
// Alongside the run it returns the ground-truth execution plan T_R and
// context function, which the ConstructPlan algorithm must later recover
// from the graph alone.
func Materialize(s *spec.Spec, t *ExecTree) (*Run, *plan.Plan, error) {
	if err := t.Validate(s); err != nil {
		return nil, nil, err
	}
	return MaterializeTable(s, t.table())
}

// table returns the tree's copy table, with the copies numbered in
// preorder.
func (t *ExecTree) table() CopyTable {
	n := t.CountCopies()
	tab := CopyTable{HNode: make([]int32, 0, n), Parent: make([]int32, 0, n)}
	tab.add(t.Copies[0], int32(t.HNode), -1)
	return tab
}

// add appends copy c of hierarchy node h and, in preorder, every copy
// nested in it.
func (tab *CopyTable) add(c *ExecCopy, h, parent int32) {
	id := int32(len(tab.HNode))
	tab.HNode = append(tab.HNode, h)
	tab.Parent = append(tab.Parent, parent)
	for _, site := range c.Sites {
		for _, cp := range site.Copies {
			tab.add(cp, int32(site.HNode), id)
		}
	}
}

// MustMaterialize is Materialize that panics on error, for tests.
func MustMaterialize(s *spec.Spec, t *ExecTree) (*Run, *plan.Plan) {
	r, p, err := Materialize(s, t)
	if err != nil {
		panic(err)
	}
	return r, p
}

// MaterializeTable is Materialize for an execution tree given as a copy
// table. Run vertices, edges and plan nodes are numbered as Materialize
// numbers them for the same tree, and the allocations do not grow with
// the run: the table is sized in one pass, the edges are collected into
// one slice for dag.FromEdges, and the plan's nodes and Children come
// from one array each.
func MaterializeTable(s *spec.Spec, tab CopyTable) (*Run, *plan.Plan, error) {
	m := &materializer{s: s}
	if err := m.index(tab); err != nil {
		return nil, nil, err
	}
	nv, ne := m.size()
	nn := len(tab.HNode) + len(m.off) - 1
	m.origin = make([]dag.VertexID, 0, nv)
	m.edges = make([]dag.Edge, 0, ne)
	m.nodes = make([]plan.Node, nn)
	m.kids = make([]*plan.Node, nn-1)
	m.p = &plan.Plan{Spec: s, Nodes: make([]*plan.Node, 0, nn), Context: make([]*plan.Node, 0, nv)}
	nSpec := s.NumVertices()
	vmap := make([]dag.VertexID, s.Hier.MaxDepth*nSpec)
	for i := range vmap {
		vmap[i] = -1
	}
	m.vmap = make([][]dag.VertexID, s.Hier.MaxDepth)
	for d := range m.vmap {
		m.vmap[d] = vmap[d*nSpec : (d+1)*nSpec]
	}

	root := m.node(true, 0, nil, len(s.Hier.Children[0]))
	m.p.Root = root
	srcRun := m.newVertex(s.Source, root)
	snkRun := m.newVertex(s.Sink, root)
	m.emitCopy(0, root, srcRun, snkRun)
	g := dag.FromEdges(len(m.origin), m.edges)
	if err := m.p.Validate(g); err != nil {
		return nil, nil, fmt.Errorf("run: materialized plan invalid: %w", err)
	}
	return &Run{Spec: s, Graph: g, Origin: m.origin}, m.p, nil
}

type materializer struct {
	s   *spec.Spec
	tab CopyTable
	// Copy c's sites, one per child of its hierarchy node in
	// Hier.Children order, are site[c] onward; the copies at site k are
	// members[off[k]:off[k+1]].
	site    []int32
	off     []int32
	members []int32

	origin []dag.VertexID
	edges  []dag.Edge
	p      *plan.Plan
	// nodes holds the plan's nodes; kids is the unused rest of the
	// array every node's Children are cut from.
	nodes []plan.Node
	kids  []*plan.Node
	// vmap[d-1] maps the specification vertices of the copy being
	// emitted at hierarchy depth d to run vertices; -1 is unmapped. A
	// copy resets its region's entries, so a sibling's mapping never
	// leaks in.
	vmap [][]dag.VertexID
}

// index checks the copy table against the hierarchy and groups each
// copy's child copies by site.
func (m *materializer) index(tab CopyTable) error {
	h := m.s.Hier
	n := len(tab.HNode)
	if n == 0 || len(tab.Parent) != n || tab.HNode[0] != 0 {
		return fmt.Errorf("run: copy table has no root copy")
	}
	m.tab = tab
	m.site = make([]int32, n)
	sites := int32(0)
	for c := range n {
		hc := int(tab.HNode[c])
		if c > 0 {
			p := tab.Parent[c]
			if hc < 1 || hc >= h.NumNodes() || p < 0 || int(p) >= c || h.Parent[hc] != int(tab.HNode[p]) {
				return fmt.Errorf("run: copy %d of hierarchy node %d does not nest in copy %d", c, hc, p)
			}
		}
		m.site[c] = sites
		sites += int32(len(h.Children[hc]))
	}
	// A counting sort of the copies by site; copies keep their order
	// within a site.
	m.off = make([]int32, sites+1)
	for c := 1; c < n; c++ {
		m.off[m.siteOf(c)+1]++
	}
	for c, hc := range tab.HNode {
		for i, child := range h.Children[hc] {
			if m.off[m.site[c]+int32(i)+1] == 0 {
				return fmt.Errorf("run: site of hierarchy node %d has no copies", child)
			}
		}
	}
	for k := range sites {
		m.off[k+1] += m.off[k]
	}
	next := append([]int32(nil), m.off[:sites]...)
	m.members = make([]int32, n-1)
	for c := 1; c < n; c++ {
		k := m.siteOf(c)
		m.members[next[k]] = int32(c)
		next[k]++
	}
	return nil
}

// siteOf returns the site copy c belongs to.
func (m *materializer) siteOf(c int) int32 {
	return m.site[m.tab.Parent[c]] + int32(m.s.Hier.Index[m.tab.HNode[c]])
}

// copies returns the copies at site k, in serial order.
func (m *materializer) copies(k int32) []int32 { return m.members[m.off[k]:m.off[k+1]] }

// size returns how many vertices and edges the run will have: the two
// run terminals; per copy, its direct non-terminal vertices and direct
// edges; per loop site, the copies' terminals not shared with the
// enclosing copy and the connectors between them.
func (m *materializer) size() (vertices, edges int) {
	s := m.s
	vertices = 2
	for c, h32 := range m.tab.HNode {
		h := int(h32)
		src, snk := s.SourceOf(h), s.SinkOf(h)
		for _, v := range s.DirectVertices(h) {
			if v != src && v != snk {
				vertices++
			}
		}
		edges += len(s.DirectEdges(h))
		for i, child := range s.Hier.Children[h] {
			if s.KindOf(child) != spec.Loop {
				continue
			}
			k := len(m.copies(m.site[c] + int32(i)))
			vertices += 2 * k
			if s.SourceOf(child) == src {
				vertices--
			}
			if s.SinkOf(child) == snk {
				vertices--
			}
			edges += k - 1
		}
	}
	return vertices, edges
}

// node makes the next plan node, with room for its children.
func (m *materializer) node(plus bool, hnode int, parent *plan.Node, children int) *plan.Node {
	n := &m.nodes[len(m.p.Nodes)]
	*n = plan.Node{ID: len(m.p.Nodes), Plus: plus, HNode: hnode, Parent: parent}
	if children > 0 {
		n.Children = m.kids[:0:children]
		m.kids = m.kids[children:]
	}
	m.p.Nodes = append(m.p.Nodes, n)
	if parent != nil {
		parent.Children = append(parent.Children, n)
	}
	return n
}

func (m *materializer) newVertex(orig dag.VertexID, ctx *plan.Node) dag.VertexID {
	v := dag.VertexID(len(m.origin))
	m.origin = append(m.origin, orig)
	m.p.Context = append(m.p.Context, ctx)
	return v
}

// emitCopy emits the body of copy c into the run graph. sRun and tRun
// are the run vertices standing for the region's source and sink; they
// are created by the caller. plus is the + plan node of this copy.
func (m *materializer) emitCopy(c int32, plus *plan.Node, sRun, tRun dag.VertexID) {
	s := m.s
	hn := int(m.tab.HNode[c])
	srcSpec, snkSpec := s.SourceOf(hn), s.SinkOf(hn)
	vmap := m.vmap[s.Hier.Depth[hn]-1]
	if sub := s.SubgraphOf(hn); sub != nil {
		for _, v := range sub.Vertices {
			vmap[v] = -1
		}
	}
	vmap[srcSpec], vmap[snkSpec] = sRun, tRun

	// Loops (and the root) dominate their terminals: claim them for this
	// copy. A deeper terminal-sharing loop child emitted below may
	// overwrite, implementing the "deepest dominating + node" rule.
	if s.KindOf(hn) == spec.Loop {
		m.p.Context[sRun] = plus
		m.p.Context[tRun] = plus
	}

	// Direct vertices of this region (terminals are already in vmap).
	for _, v := range s.DirectVertices(hn) {
		if v == srcSpec || v == snkSpec {
			continue
		}
		vmap[v] = m.newVertex(v, plus)
	}

	// The copy's − nodes, one per site in Hier.Children order, so the
	// plan's orders visit sites as plan.Construct's do.
	children := s.Hier.Children[hn]
	first := len(m.p.Nodes)
	for i, child := range children {
		m.node(false, child, plus, len(m.copies(m.site[c]+int32(i))))
	}
	// Loop sites first: they create their own terminal vertices, which
	// sibling fork sites and direct edges may reference.
	for i, child := range children {
		if s.KindOf(child) == spec.Loop {
			m.emitLoopSite(child, m.site[c]+int32(i), &m.nodes[first+i], vmap, srcSpec, snkSpec)
		}
	}
	for i, child := range children {
		if s.KindOf(child) == spec.Fork {
			m.emitForkSite(child, m.site[c]+int32(i), &m.nodes[first+i], vmap)
		}
	}

	for _, e := range s.DirectEdges(hn) {
		u, w := vmap[e.Tail], vmap[e.Head]
		if u < 0 {
			panic(fmt.Sprintf("run: direct edge tail %d of region %d unmapped", e.Tail, hn))
		}
		if w < 0 {
			panic(fmt.Sprintf("run: direct edge head %d of region %d unmapped", e.Head, hn))
		}
		m.edges = append(m.edges, dag.Edge{Tail: u, Head: w})
	}
}

// emitLoopSite emits all serial copies of loop child at site k under the
// − node minus, chains them with connector edges, and registers the
// chain terminals in the parent's vmap. When the loop shares a terminal
// with the enclosing region, the first copy's source (resp. last copy's
// sink) reuses the already-created vertex.
func (m *materializer) emitLoopSite(child int, k int32, minus *plan.Node,
	vmap []dag.VertexID, parentSrc, parentSnk dag.VertexID) {

	sub := m.s.SubgraphOf(child)
	kids := len(m.s.Hier.Children[child])
	copies := m.copies(k)
	var first, prevSink dag.VertexID
	for j, cp := range copies {
		copyPlus := m.node(true, child, minus, kids)
		var sj, tj dag.VertexID
		if j == 0 && sub.Source == parentSrc {
			sj = vmap[parentSrc]
			m.p.Context[sj] = copyPlus // deeper loop claims the shared terminal
		} else {
			sj = m.newVertex(sub.Source, copyPlus)
		}
		if j == len(copies)-1 && sub.Sink == parentSnk {
			tj = vmap[parentSnk]
			m.p.Context[tj] = copyPlus
		} else {
			tj = m.newVertex(sub.Sink, copyPlus)
		}
		m.emitCopy(cp, copyPlus, sj, tj)
		if j > 0 {
			m.edges = append(m.edges, dag.Edge{Tail: prevSink, Head: sj}) // serial connector
		} else {
			first = sj
		}
		prevSink = tj
	}
	vmap[sub.Source] = first
	vmap[sub.Sink] = prevSink
}

// emitForkSite emits all parallel copies of fork child at site k under
// the − node minus, between the shared terminal vertices already present
// in vmap.
func (m *materializer) emitForkSite(child int, k int32, minus *plan.Node, vmap []dag.VertexID) {
	sub := m.s.SubgraphOf(child)
	sRun, tRun := vmap[sub.Source], vmap[sub.Sink]
	if sRun < 0 {
		panic(fmt.Sprintf("run: fork %d source %d unmapped", child, sub.Source))
	}
	if tRun < 0 {
		panic(fmt.Sprintf("run: fork %d sink %d unmapped", child, sub.Sink))
	}
	kids := len(m.s.Hier.Children[child])
	for _, cp := range m.copies(k) {
		copyPlus := m.node(true, child, minus, kids)
		m.emitCopy(cp, copyPlus, sRun, tRun)
	}
}
