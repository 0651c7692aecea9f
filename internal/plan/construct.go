package plan

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/dag"
	"repro/internal/spec"
)

// Construct recovers the execution plan T_R and the context function of a
// run from its graph and origin function alone, implementing the
// ComputeContext / SearchNodes algorithms of Section 5.
//
// The algorithm processes the fork-and-loop hierarchy bottom-up. At each
// level it locates every copy of every subgraph from a designated "leader"
// seed edge, explores the copy with an undirected DFS pruned at the copy's
// terminals, collapses the copy to a special edge, and then groups
// parallel fork copies (shared endpoints) under an F− node and serial loop
// chains (linked by connector edges) under an ordered L− node. Each edge
// is visited a constant number of times, so construction is O(m + n).
//
// The progressively collapsed graph lives in one edge arena: the run's
// edges first, in g.Edges order, then each special copy or group edge as
// it is made, all addressed by int32. Every vertex heads two singly
// linked lists through the arena, its out-edges and its in-edges, with
// first and last indices, and a special edge is appended at the tail of
// both. A list therefore yields its edges in creation order, the order a
// per-vertex slice grown with append would, and the plan — node IDs,
// Children order, contexts, and the error on a run that does not
// conform — does not depend on the layout. A deleted edge stays linked
// until the next walk of a list that holds it, which unlinks it; each
// edge is unlinked from its two lists once, so the walks stay O(m + n)
// in total. Plan nodes come from slabs, and each node's Children are
// sliced from one array filled when construction ends, so the
// allocation count grows with the hierarchy and the plan's size in
// slabs, not with the number of edges.
//
// Construct returns an error if the graph does not conform to the
// specification's fork/loop structure.
func Construct(s *spec.Spec, g *dag.Graph, origin []dag.VertexID) (*Plan, error) {
	if len(origin) != g.NumVertices() {
		return nil, fmt.Errorf("plan: %d origins for %d vertices", len(origin), g.NumVertices())
	}
	c := newConstructor(s, g, origin)
	return c.run()
}

// List directions: an edge sits on its tail's out-list and its head's
// in-list.
const (
	outList = 0
	inList  = 1
)

// workEdge is an edge of the progressively collapsed run graph.
type workEdge struct {
	tail, head dag.VertexID
	// next threads the edge through its tail's out-list (next[outList])
	// and its head's in-list (next[inList]); -1 ends a list.
	next [2]int32
	// copyPlus is the + node of the collapsed copy this special edge
	// stands for (between the collapse and grouping steps of a level),
	// or -1.
	copyPlus int32
	// group is the − node of all copies at a site this special edge
	// stands for, or -1.
	group int32
	// hnode is the hierarchy node of the collapse (0 for original edges).
	hnode     int32
	deleted   bool
	collected bool
}

// adjacency heads a vertex's out- and in-lists in the edge arena.
type adjacency struct {
	first, last [2]int32
}

// nodeSlab is how many plan nodes one slab allocation holds at most.
const nodeSlab = 256

type constructor struct {
	s      *spec.Spec
	origin []dag.VertexID

	p     *Plan
	edges []workEdge
	adj   []adjacency
	// slab holds the plan nodes not yet handed out; links records every
	// (parent, child) link in order, so finishChildren can fill all
	// Children slices from one array.
	slab  []Node
	links [][2]int32

	// member[h] marks the specification vertices in V(H) of hierarchy
	// node h (all vertices for the root).
	member []*bitset.Set
	// leaderChild[h] is the child hierarchy node designated as leader for
	// internal node h, or 0.
	leaderChild []int
	// seeds[h] collects the seed edges for copies of hierarchy node h.
	seeds [][]int32

	// DFS scratch.
	visited  []uint32
	gen      uint32
	frontier []dag.VertexID

	// The copy being collapsed: its kind and terminal origins, the
	// terminals found so far, and the edges collected.
	kind             spec.Kind
	srcOrig, snkOrig dag.VertexID
	memb             *bitset.Set
	sTerm, tTerm     dag.VertexID
	collected        []int32

	// Grouping scratch. copyEdges holds the level's copy edges; chain,
	// conn and hasPred are indexed by position in it; copyAt by run
	// vertex (all -1 between uses); buckets, first and last by fork
	// bucket.
	copyEdges   []int32
	chain       []int32
	conn        []int32
	hasPred     []bool
	copyAt      []int32
	buckets     map[[2]dag.VertexID]int32
	first, last []int32
}

func newConstructor(s *spec.Spec, g *dag.Graph, origin []dag.VertexID) *constructor {
	n := g.NumVertices()
	m := g.NumEdges()
	c := &constructor{
		s:       s,
		origin:  origin,
		p:       &Plan{Spec: s, Context: make([]*Node, n)},
		edges:   make([]workEdge, 0, m+m/2+1),
		adj:     make([]adjacency, n),
		seeds:   make([][]int32, s.Hier.NumNodes()),
		visited: make([]uint32, n),
	}
	for v := range c.adj {
		c.adj[v] = adjacency{first: [2]int32{-1, -1}, last: [2]int32{-1, -1}}
	}
	for _, e := range g.Edges() {
		c.addEdge(workEdge{tail: e.Tail, head: e.Head, copyPlus: -1, group: -1})
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
func (c *constructor) newDetached(plus bool, hnode int) *Node {
	if len(c.slab) == cap(c.slab) {
		c.slab = make([]Node, 0, min(nodeSlab, 16+2*len(c.p.Nodes)))
	}
	c.slab = c.slab[:len(c.slab)+1]
	n := &c.slab[len(c.slab)-1]
	*n = Node{ID: len(c.p.Nodes), Plus: plus, HNode: hnode}
	c.p.Nodes = append(c.p.Nodes, n)
	return n
}

// link makes child the next child of parent. Children slices are
// filled by finishChildren, in link order.
func (c *constructor) link(parent, child *Node) {
	child.Parent = parent
	c.links = append(c.links, [2]int32{int32(parent.ID), int32(child.ID)})
}

// finishChildren gives every node its Children, in the order link
// attached them, sliced from one array. Each slice is capped at its
// length, so appending to one never writes into another.
func (c *constructor) finishChildren() {
	nodes := c.p.Nodes
	// A counting sort of the links by parent: end[p] first counts p's
	// children, then is where the next one goes, and ends at p's end.
	end := make([]int32, len(nodes))
	for _, l := range c.links {
		end[l[0]]++
	}
	var off int32
	for p, k := range end {
		end[p] = off
		off += k
	}
	kids := make([]*Node, len(c.links))
	for _, l := range c.links {
		kids[end[l[0]]] = nodes[l[1]]
		end[l[0]]++
	}
	var begin int32
	for p, n := range nodes {
		if end[p] > begin {
			n.Children = kids[begin:end[p]:end[p]]
		}
		begin = end[p]
	}
}

// addEdge appends e to the arena and to the tails of its two lists, and
// returns its index.
func (c *constructor) addEdge(e workEdge) int32 {
	id := int32(len(c.edges))
	e.next = [2]int32{-1, -1}
	c.edges = append(c.edges, e)
	for d, v := range [2]dag.VertexID{e.tail, e.head} {
		a := &c.adj[v]
		if a.last[d] < 0 {
			a.first[d] = id
		} else {
			c.edges[a.last[d]].next[d] = id
		}
		a.last[d] = id
	}
	return id
}

// nextLive steps a walk of v's list d: it returns the first live edge
// after prev (after the list head when prev is -1), or -1 at the end,
// unlinking the deleted edges it passes. A walk must not delete the
// edges it has been handed while it runs.
func (c *constructor) nextLive(v dag.VertexID, d int, prev int32) int32 {
	a := &c.adj[v]
	e := a.first[d]
	if prev >= 0 {
		e = c.edges[prev].next[d]
	}
	if e < 0 || !c.edges[e].deleted {
		return e
	}
	for e >= 0 && c.edges[e].deleted {
		e = c.edges[e].next[d]
	}
	if prev >= 0 {
		c.edges[prev].next[d] = e
	} else {
		a.first[d] = e
	}
	if e < 0 {
		a.last[d] = prev
	}
	return e
}

func (c *constructor) run() (*Plan, error) {
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
		for v := range c.adj {
			for e := c.adj[v].first[outList]; e >= 0; e = c.edges[e].next[outList] {
				we := &c.edges[e]
				key := dag.Edge{Tail: c.origin[we.tail], Head: c.origin[we.head]}
				if h, ok := leafLeader[key]; ok {
					c.seeds[h] = append(c.seeds[h], e)
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
func (c *constructor) processSubgraph(h int) error {
	kind := c.s.KindOf(h)
	c.copyEdges = c.copyEdges[:0]
	for _, seed := range c.seeds[h] {
		if c.edges[seed].deleted || c.edges[seed].collected {
			continue // consumed while collapsing an earlier copy (conformance errors only)
		}
		ce, err := c.collapseCopy(h, seed)
		if err != nil {
			return err
		}
		c.copyEdges = append(c.copyEdges, ce)
	}
	c.seeds[h] = nil
	if len(c.copyEdges) == 0 {
		return fmt.Errorf("plan: no copies of %s %q..%q found in run",
			kind, c.s.NameOf(c.s.SourceOf(h)), c.s.NameOf(c.s.SinkOf(h)))
	}
	if kind == spec.Fork {
		return c.groupForks(h)
	}
	return c.groupLoops(h)
}

// arrive marks v as reached by the search for the current copy, checks
// that it may belong to the copy, notes it if it is a terminal, and
// pushes it on the frontier.
func (c *constructor) arrive(v dag.VertexID) error {
	if c.visited[v] == c.gen {
		return nil
	}
	c.visited[v] = c.gen
	o := c.origin[v]
	if !c.memb.Test(int(o)) {
		return fmt.Errorf("plan: search for %s %q..%q escaped to vertex with origin %q — run does not conform",
			c.kind, c.s.NameOf(c.srcOrig), c.s.NameOf(c.snkOrig), c.s.NameOf(o))
	}
	switch o {
	case c.srcOrig:
		if c.sTerm >= 0 && c.sTerm != v {
			return fmt.Errorf("plan: copy of %s %q..%q has two sources", c.kind, c.s.NameOf(c.srcOrig), c.s.NameOf(c.snkOrig))
		}
		c.sTerm = v
	case c.snkOrig:
		if c.tTerm >= 0 && c.tTerm != v {
			return fmt.Errorf("plan: copy of %s %q..%q has two sinks", c.kind, c.s.NameOf(c.srcOrig), c.s.NameOf(c.snkOrig))
		}
		c.tTerm = v
	}
	c.frontier = append(c.frontier, v)
	return nil
}

// visit walks v's list d for the current copy: every live edge not yet
// collected is collected and its far end arrives.
func (c *constructor) visit(v dag.VertexID, d int) error {
	for e := c.nextLive(v, d, -1); e >= 0; e = c.nextLive(v, d, e) {
		we := &c.edges[e]
		if we.collected {
			continue
		}
		we.collected = true
		c.collected = append(c.collected, e)
		other := we.head
		if d == inList {
			other = we.tail
		}
		if err := c.arrive(other); err != nil {
			return err
		}
	}
	return nil
}

// collapseCopy explores the copy of h containing the seed edge, creates
// its + node, attaches the group nodes of nested sites, assigns contexts,
// and replaces the copy's edges by a special copy edge.
func (c *constructor) collapseCopy(h int, seed int32) (int32, error) {
	c.kind = c.s.KindOf(h)
	c.srcOrig, c.snkOrig = c.s.SourceOf(h), c.s.SinkOf(h)
	c.memb = c.member[h]

	plus := c.newDetached(true, h)

	c.gen++
	if c.gen == 0 {
		for i := range c.visited {
			c.visited[i] = 0
		}
		c.gen = 1
	}
	c.sTerm, c.tTerm = -1, -1
	c.collected = append(c.collected[:0], seed)
	c.edges[seed].collected = true
	c.frontier = c.frontier[:0]

	if err := c.arrive(c.edges[seed].tail); err != nil {
		return -1, err
	}
	if err := c.arrive(c.edges[seed].head); err != nil {
		return -1, err
	}

	for len(c.frontier) > 0 {
		v := c.frontier[len(c.frontier)-1]
		c.frontier = c.frontier[:len(c.frontier)-1]
		o := c.origin[v]
		expandOut := true
		expandIn := true
		if o == c.srcOrig {
			if c.kind == spec.Fork {
				expandOut, expandIn = false, false
			} else {
				expandIn = false // only source-outgoing edges stay inside the loop copy
			}
		} else if o == c.snkOrig {
			if c.kind == spec.Fork {
				expandOut, expandIn = false, false
			} else {
				expandOut = false // only sink-incoming edges stay inside the loop copy
			}
		}
		if expandOut {
			if err := c.visit(v, outList); err != nil {
				return -1, err
			}
		}
		if expandIn {
			if err := c.visit(v, inList); err != nil {
				return -1, err
			}
		}
	}

	if c.sTerm < 0 || c.tTerm < 0 {
		return -1, fmt.Errorf("plan: copy of %s %q..%q has no source or sink — run does not conform",
			c.kind, c.s.NameOf(c.srcOrig), c.s.NameOf(c.snkOrig))
	}

	// Attach nested sites, assign contexts, delete the copy's edges.
	for _, e := range c.collected {
		we := &c.edges[e]
		if we.group >= 0 {
			c.link(plus, c.p.Nodes[we.group])
		}
		we.deleted = true
	}
	// Context assignment: every visited vertex without a context belongs
	// to this copy; fork copies do not own their terminals.
	for _, e := range c.collected {
		we := &c.edges[e]
		for _, v := range [2]dag.VertexID{we.tail, we.head} {
			if c.kind == spec.Fork && (v == c.sTerm || v == c.tTerm) {
				continue
			}
			if c.p.Context[v] == nil {
				c.p.Context[v] = plus
			}
		}
	}

	return c.addEdge(workEdge{tail: c.sTerm, head: c.tTerm, copyPlus: int32(plus.ID), group: -1, hnode: int32(h)}), nil
}

// groupForks merges parallel copy edges sharing both endpoints into F−
// nodes and replaces each bucket with one group edge. Buckets are made
// in order of their first copy; chain links each bucket's copies in
// order.
func (c *constructor) groupForks(h int) error {
	if c.buckets == nil {
		c.buckets = make(map[[2]dag.VertexID]int32)
	}
	clear(c.buckets)
	c.chain = resize(c.chain, len(c.copyEdges))
	first, last := c.first[:0], c.last[:0]
	for i, ce := range c.copyEdges {
		c.chain[i] = -1
		key := [2]dag.VertexID{c.edges[ce].tail, c.edges[ce].head}
		if b, ok := c.buckets[key]; ok {
			c.chain[last[b]] = int32(i)
			last[b] = int32(i)
			continue
		}
		c.buckets[key] = int32(len(first))
		first = append(first, int32(i))
		last = append(last, int32(i))
	}
	c.first, c.last = first, last
	for _, i := range first {
		minus := c.newDetached(false, h)
		ends := c.edges[c.copyEdges[i]]
		for ; i >= 0; i = c.chain[i] {
			we := &c.edges[c.copyEdges[i]]
			c.link(minus, c.p.Nodes[we.copyPlus])
			we.deleted = true
		}
		c.emitGroupEdge(h, minus, ends.tail, ends.head)
	}
	return nil
}

// groupLoops chains serial copy edges through their connector edges into
// ordered L− nodes and replaces each chain with one group edge.
func (c *constructor) groupLoops(h int) error {
	srcOrig := c.s.SourceOf(h)
	k := len(c.copyEdges)
	if err := c.findConnectors(h); err != nil {
		return err
	}
	chained := 0
	for i := range c.copyEdges {
		if c.hasPred[i] {
			continue
		}
		minus := c.newDetached(false, h)
		last := i
		for j := i; j >= 0; j = int(c.chain[j]) {
			we := &c.edges[c.copyEdges[j]]
			c.link(minus, c.p.Nodes[we.copyPlus])
			we.deleted = true
			if conn := c.conn[j]; conn >= 0 {
				c.edges[conn].deleted = true
			}
			last = j
			chained++
			if chained > k {
				return fmt.Errorf("plan: loop %q..%q chain is cyclic", c.s.NameOf(srcOrig), c.s.NameOf(c.s.SinkOf(h)))
			}
		}
		c.emitGroupEdge(h, minus, c.edges[c.copyEdges[i]].tail, c.edges[c.copyEdges[last]].head)
	}
	if chained != k {
		return fmt.Errorf("plan: loop %q..%q chains cover %d of %d copies",
			c.s.NameOf(srcOrig), c.s.NameOf(c.s.SinkOf(h)), chained, k)
	}
	return nil
}

// findConnectors fills chain (the next copy in serial order, or -1),
// conn (the connector edge to it, or -1) and hasPred for the level's
// loop copies.
func (c *constructor) findConnectors(h int) error {
	srcOrig := c.s.SourceOf(h)
	k := len(c.copyEdges)
	c.chain, c.conn, c.hasPred = resize(c.chain, k), resize(c.conn, k), resize(c.hasPred, k)
	if c.copyAt == nil {
		c.copyAt = make([]int32, len(c.adj))
		for v := range c.copyAt {
			c.copyAt[v] = -1
		}
	}
	for i, ce := range c.copyEdges {
		c.chain[i], c.conn[i], c.hasPred[i] = -1, -1, false
		c.copyAt[c.edges[ce].tail] = int32(i) // the last copy with a source wins
	}
	defer func() {
		for _, ce := range c.copyEdges {
			c.copyAt[c.edges[ce].tail] = -1
		}
	}()
	for i, ce := range c.copyEdges {
		// The connector, if any, is the unique out-edge of the copy's sink
		// leading to a vertex originating from the loop source.
		var conn int32 = -1
		sink := c.edges[ce].head
		for e := c.nextLive(sink, outList, -1); e >= 0; e = c.nextLive(sink, outList, e) {
			if e == ce || c.edges[e].collected {
				continue
			}
			if c.origin[c.edges[e].head] == srcOrig {
				conn = e
			}
		}
		if conn < 0 {
			continue
		}
		nxt := c.copyAt[c.edges[conn].head]
		if nxt < 0 || nxt == int32(i) {
			return fmt.Errorf("plan: loop %q..%q has a connector to a non-copy vertex",
				c.s.NameOf(srcOrig), c.s.NameOf(c.s.SinkOf(h)))
		}
		c.chain[i] = nxt
		c.conn[i] = conn
		c.hasPred[nxt] = true
	}
	return nil
}

// resize returns s with length n, reusing its array when it is large
// enough; the contents are the caller's to set.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (c *constructor) emitGroupEdge(h int, minus *Node, sV, tV dag.VertexID) {
	ge := c.addEdge(workEdge{tail: sV, head: tV, copyPlus: -1, group: int32(minus.ID), hnode: int32(h)})
	if parent := c.s.Hier.Parent[h]; parent > 0 && c.leaderChild[parent] == h {
		c.seeds[parent] = append(c.seeds[parent], ge)
	}
}

// finishRoot assigns the root context to every remaining vertex, attaches
// the surviving group edges to the root + node, and validates leftovers.
func (c *constructor) finishRoot() (*Plan, error) {
	root := c.newDetached(true, 0)
	c.p.Root = root
	for v := range c.adj {
		u := dag.VertexID(v)
		for e := c.nextLive(u, outList, -1); e >= 0; e = c.nextLive(u, outList, e) {
			we := &c.edges[e]
			if we.group >= 0 && c.p.Nodes[we.group].Parent == nil {
				c.link(root, c.p.Nodes[we.group])
			}
		}
	}
	for v, ctx := range c.p.Context {
		if ctx == nil {
			c.p.Context[v] = root
		}
	}
	// Conformance: no ungrouped copy edges may survive.
	for v := range c.adj {
		for e := c.adj[v].first[outList]; e >= 0; e = c.edges[e].next[outList] {
			if we := &c.edges[e]; we.copyPlus >= 0 && we.group < 0 && !we.deleted {
				return nil, fmt.Errorf("plan: ungrouped copy of hierarchy node %d survived to the root", we.hnode)
			}
		}
	}
	c.finishChildren()
	return c.p, nil
}
