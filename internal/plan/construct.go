package plan

import (
	"fmt"
	"sync"

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
// in total. The arena, the lists and every other piece of scratch come
// from a pool and are reused across calls; plan nodes are recorded in
// that scratch by index, and only when construction ends is the output
// Plan allocated, its nodes in one array and its node, context and
// child pointers in another. A call on warm scratch therefore
// allocates a constant number of times, whatever the size of the run.
// What depends only on the specification (each hierarchy node's region,
// and which origin pairs seed the leaf copies) is read from tables
// spec.Validate builds.
//
// Construct returns an error if the graph does not conform to the
// specification's fork/loop structure.
func Construct(s *spec.Spec, g *dag.Graph, origin []dag.VertexID) (*Plan, error) {
	if len(origin) != g.NumVertices() {
		return nil, fmt.Errorf("plan: %d origins for %d vertices", len(origin), g.NumVertices())
	}
	c := constructorPool.Get().(*constructor)
	p, err := c.construct(s, g, origin)
	if cap(c.edges) <= maxPooledEdges {
		constructorPool.Put(c)
	}
	return p, err
}

// maxPooledEdges bounds the edge arena a pooled constructor keeps, so
// one oversized run does not stay pinned in the pool.
const maxPooledEdges = 1 << 18

var constructorPool = sync.Pool{New: func() any { return new(constructor) }}

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

// nodeRec is a plan node while construction runs: the output Node is
// made from it when construction ends.
type nodeRec struct {
	hnode  int32
	parent int32 // -1 until linked
	plus   bool
}

// constructor is the scratch of one construction. Construct takes it
// from a pool and reset sizes it for the run; nothing in it survives
// into the Plan.
type constructor struct {
	s      *spec.Spec
	origin []dag.VertexID

	edges []workEdge
	adj   []adjacency
	// nodes are the plan nodes made so far, by ID; context[v] is the ID
	// of run vertex v's context, or -1; links records every (parent,
	// child) link in order, so the Children slices can be filled from
	// one array; end is that fill's counting scratch.
	nodes   []nodeRec
	context []int32
	links   [][2]int32
	end     []int32

	// seeds[h] collects the seed edges for copies of hierarchy node h.
	seeds [][]int32

	// DFS scratch. visited holds generation stamps; stamps left by
	// earlier runs are all below the current generation.
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
	// vertex (all of copyAt[:cap] is -1 between uses); buckets, first
	// and last by fork bucket.
	copyEdges   []int32
	chain       []int32
	conn        []int32
	hasPred     []bool
	copyAt      []int32
	buckets     map[[2]dag.VertexID]int32
	first, last []int32
}

// reset sizes the scratch for a run of g and fills the edge arena from
// g's lists, in g.Edges order, seeding every leaf subgraph with the run
// edges whose origin pair is the leaf's designated leader edge.
func (c *constructor) reset(s *spec.Spec, g *dag.Graph, origin []dag.VertexID) {
	n, m, k := g.NumVertices(), g.NumEdges(), s.Hier.NumNodes()
	c.s, c.origin = s, origin
	c.nodes, c.links = c.nodes[:0], c.links[:0]
	c.context = resize(c.context, n)
	for v := range c.context {
		c.context[v] = -1
	}
	c.adj = resize(c.adj, n)
	for v := range c.adj {
		c.adj[v] = adjacency{first: [2]int32{-1, -1}, last: [2]int32{-1, -1}}
	}
	if cap(c.visited) < n {
		c.visited = make([]uint32, n)
	}
	c.visited = c.visited[:n]
	c.seeds = resize(c.seeds, k)
	for h := range c.seeds {
		c.seeds[h] = c.seeds[h][:0]
	}
	if want := m + m/2 + 1; cap(c.edges) < want {
		c.edges = make([]workEdge, 0, want)
	}
	c.edges = c.edges[:0]
	for u := range n {
		ou := origin[u]
		for _, v := range g.Out(dag.VertexID(u)) {
			e := c.addEdge(workEdge{tail: dag.VertexID(u), head: v, copyPlus: -1, group: -1})
			if h := s.LeafLeader(ou, origin[v]); h > 0 {
				c.seeds[h] = append(c.seeds[h], e)
			}
		}
	}
}

// construct builds the plan of a run on c's scratch and drops c's
// references to the caller's specification and origins.
func (c *constructor) construct(s *spec.Spec, g *dag.Graph, origin []dag.VertexID) (*Plan, error) {
	c.reset(s, g, origin)
	p, err := c.run()
	c.s, c.origin, c.memb = nil, nil, nil
	return p, err
}

// newDetached creates a plan node without linking it to a parent and
// returns its ID.
func (c *constructor) newDetached(plus bool, hnode int) int32 {
	c.nodes = append(c.nodes, nodeRec{hnode: int32(hnode), parent: -1, plus: plus})
	return int32(len(c.nodes) - 1)
}

// link makes child the next child of parent. Children slices are
// filled by finishPlan, in link order.
func (c *constructor) link(parent, child int32) {
	c.nodes[child].parent = parent
	c.links = append(c.links, [2]int32{parent, child})
}

// finishPlan allocates the output Plan from the recorded nodes,
// contexts and links: the nodes in one array, and the Nodes, Context
// and Children pointers in another. Every node's Children, in the order
// link attached them, is sliced from that array and capped at its
// length, so appending to one never writes into another.
func (c *constructor) finishPlan(root int32) *Plan {
	k, n := len(c.nodes), len(c.context)
	nodes := make([]Node, k)
	ptrs := make([]*Node, k+n+len(c.links))
	p := &Plan{Spec: c.s, Root: &nodes[root], Nodes: ptrs[:k:k], Context: ptrs[k : k+n : k+n]}
	kids := ptrs[k+n:]
	for i, rec := range c.nodes {
		nd := &nodes[i]
		*nd = Node{ID: i, Plus: rec.plus, HNode: int(rec.hnode)}
		if rec.parent >= 0 {
			nd.Parent = &nodes[rec.parent]
		}
		p.Nodes[i] = nd
	}
	for v, ctx := range c.context {
		p.Context[v] = &nodes[ctx]
	}
	// A counting sort of the links by parent: end[p] first counts p's
	// children, then is where the next one goes, and ends at p's end.
	end := resize(c.end, k)
	clear(end)
	c.end = end
	for _, l := range c.links {
		end[l[0]]++
	}
	var off int32
	for p, n := range end {
		end[p] = off
		off += n
	}
	for _, l := range c.links {
		kids[end[l[0]]] = &nodes[l[1]]
		end[l[0]]++
	}
	var begin int32
	for i := range nodes {
		if end[i] > begin {
			nodes[i].Children = kids[begin:end[i]:end[i]]
		}
		begin = end[i]
	}
	return p
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
	c.seeds[h] = c.seeds[h][:0]
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
	c.memb = c.s.Region(h)

	plus := c.newDetached(true, h)

	c.gen++
	if c.gen == 0 {
		clear(c.visited[:cap(c.visited)])
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
			c.link(plus, we.group)
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
			if c.context[v] < 0 {
				c.context[v] = plus
			}
		}
	}

	return c.addEdge(workEdge{tail: c.sTerm, head: c.tTerm, copyPlus: plus, group: -1, hnode: int32(h)}), nil
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
			c.link(minus, we.copyPlus)
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
			c.link(minus, we.copyPlus)
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
	if cap(c.copyAt) < len(c.adj) {
		c.copyAt = make([]int32, len(c.adj))
		for v := range c.copyAt {
			c.copyAt[v] = -1
		}
	}
	c.copyAt = c.copyAt[:len(c.adj)]
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

// emitGroupEdge replaces a site's copies by one group edge for minus.
// The first child of an internal hierarchy node is its leader: the
// leader's group edges seed the copies of its parent.
func (c *constructor) emitGroupEdge(h int, minus int32, sV, tV dag.VertexID) {
	ge := c.addEdge(workEdge{tail: sV, head: tV, copyPlus: -1, group: minus, hnode: int32(h)})
	if parent := c.s.Hier.Parent[h]; parent > 0 && c.s.Hier.Children[parent][0] == h {
		c.seeds[parent] = append(c.seeds[parent], ge)
	}
}

// finishRoot assigns the root context to every remaining vertex, attaches
// the surviving group edges to the root + node, and validates leftovers.
func (c *constructor) finishRoot() (*Plan, error) {
	root := c.newDetached(true, 0)
	for v := range c.adj {
		u := dag.VertexID(v)
		for e := c.nextLive(u, outList, -1); e >= 0; e = c.nextLive(u, outList, e) {
			we := &c.edges[e]
			if we.group >= 0 && c.nodes[we.group].parent < 0 {
				c.link(root, we.group)
			}
		}
	}
	for v, ctx := range c.context {
		if ctx < 0 {
			c.context[v] = root
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
	return c.finishPlan(root), nil
}
