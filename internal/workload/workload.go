// Package workload generates the evaluation workloads of Section 8:
// synthetic workflow specifications with exact structural parameters
// (number of vertices n_G, number of edges m_G, hierarchy size |T_G| and
// hierarchy depth [T_G]), stand-ins for the six real myExperiment
// workflows of Table 1, and query workloads.
//
// Substitution note (see DESIGN.md): the paper's real specifications come
// from the myExperiment repository, which we cannot access. The labeling
// algorithms observe only the graph structure (G, F, L), and the paper's
// own analysis identifies exactly the four published parameters as the
// performance-relevant quantities, so we synthesize specifications that
// match those parameters exactly.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/spec"
)

// Params are the structural parameters of a synthetic specification.
type Params struct {
	// NG is the number of vertices of G.
	NG int
	// MG is the number of edges of G.
	MG int
	// TGSize is |T_G|: the number of forks and loops plus one.
	TGSize int
	// TGDepth is [T_G]: the depth of the fork-and-loop hierarchy
	// (the root alone has depth 1).
	TGDepth int
	// ForkFraction is the fraction of subgraphs generated as forks
	// (the rest are loops). Zero means 0.5.
	ForkFraction float64
}

func (p Params) String() string {
	return fmt.Sprintf("nG=%d mG=%d |TG|=%d [TG]=%d", p.NG, p.MG, p.TGSize, p.TGDepth)
}

// region is a node of the construction tree: the root or one subgraph.
type region struct {
	kind     spec.Kind // meaningful for non-root
	root     bool
	children []*region
	// plain is the number of padding vertices in this region's own chain.
	plain int
	// chain is the emitted order of elements: -1 for a plain vertex,
	// otherwise an index into children.
	chain []int
}

// Synthesize generates a specification with exactly the given parameters.
// It returns an error when the parameters are infeasible (too few vertices
// for the requested hierarchy, too few edges for a connected flow network,
// or too many edges for the available skip-edge slots).
func Synthesize(rng *rand.Rand, p Params) (*spec.Spec, error) {
	if p.TGSize < 1 || p.TGDepth < 1 {
		return nil, fmt.Errorf("workload: |TG| and [TG] must be at least 1 (%v)", p)
	}
	k := p.TGSize - 1
	if k == 0 && p.TGDepth != 1 {
		return nil, fmt.Errorf("workload: no subgraphs requires depth 1 (%v)", p)
	}
	if k > 0 && (p.TGDepth < 2 || k < p.TGDepth-1) {
		return nil, fmt.Errorf("workload: %d subgraphs cannot realize depth %d (%v)", k, p.TGDepth, p)
	}
	if p.MG < p.NG-1 {
		return nil, fmt.Errorf("workload: need at least nG-1 edges (%v)", p)
	}
	ff := p.ForkFraction
	if ff == 0 {
		ff = 0.5
	}

	// 1. Hierarchy shape with exact depth: a chain of TGDepth-1 subgraphs
	// pins the depth; remaining subgraphs attach to random nodes whose
	// depth stays within bounds.
	root := &region{root: true}
	nodes := []*region{root}          // all regions, root first
	depth := map[*region]int{root: 1} // root depth 1
	prev := root
	for d := 2; d <= p.TGDepth; d++ {
		r := &region{}
		prev.children = append(prev.children, r)
		depth[r] = d
		nodes = append(nodes, r)
		prev = r
	}
	for len(nodes) < p.TGSize {
		parent := nodes[rng.Intn(len(nodes))]
		if depth[parent] >= p.TGDepth {
			continue
		}
		r := &region{}
		parent.children = append(parent.children, r)
		depth[r] = depth[parent] + 1
		nodes = append(nodes, r)
	}

	// 2. Kinds. A fork whose entire body is one child loop region is
	// still atomic, so kinds are unconstrained; only leaf forks need one
	// plain internal vertex (added below).
	for _, r := range nodes[1:] {
		if rng.Float64() < ff {
			r.kind = spec.Fork
		} else {
			r.kind = spec.Loop
		}
	}

	// 3. Minimum vertex cost: root terminals (2), loop terminals (2 per
	// loop), fork terminals (2 per fork, owned by the parent chain) and
	// one internal for childless forks.
	minCost := 2
	for _, r := range nodes[1:] {
		minCost += 2
		if r.kind == spec.Fork && len(r.children) == 0 {
			r.plain = 1
			minCost++
		}
	}
	if p.NG < minCost {
		return nil, fmt.Errorf("workload: nG=%d below structural minimum %d (%v)", p.NG, minCost, p)
	}
	// Distribute the padding vertices over random regions.
	for extra := p.NG - minCost; extra > 0; extra-- {
		nodes[rng.Intn(len(nodes))].plain++
	}
	// Fix each region's chain order (children and plain vertices shuffled).
	for _, r := range nodes {
		r.chain = r.chain[:0]
		for i := range r.children {
			r.chain = append(r.chain, i)
		}
		for i := 0; i < r.plain; i++ {
			r.chain = append(r.chain, -1)
		}
		rng.Shuffle(len(r.chain), func(i, j int) { r.chain[i], r.chain[j] = r.chain[j], r.chain[i] })
	}

	// 4. Emit the base path and record skip anchors per region.
	b := spec.NewBuilder()
	next := 0
	fresh := func() spec.ModuleName {
		n := spec.ModuleName(fmt.Sprintf("v%d", next))
		next++
		b.Module(n)
		return n
	}
	type anchor struct {
		name  spec.ModuleName
		outOK bool // may start a skip edge
		inOK  bool // may end a skip edge
	}
	anchorsOf := make(map[*region][]anchor)
	membersOf := make(map[*region][]spec.ModuleName)
	type declared struct {
		r        *region
		src, snk spec.ModuleName
		internal []spec.ModuleName
	}
	var decls []declared

	// emit renders the region body between entry and exit module names,
	// connecting prev -> ... -> exit, and returns all module names that
	// belong to the region (for the subgraph declaration).
	var emit func(r *region, entry, exit spec.ModuleName) []spec.ModuleName
	emit = func(r *region, entry, exit spec.ModuleName) []spec.ModuleName {
		members := []spec.ModuleName{entry, exit}
		anchors := []anchor{{entry, true, true}}
		prev := entry
		for _, el := range r.chain {
			if el == -1 {
				v := fresh()
				members = append(members, v)
				b.Edge(prev, v)
				anchors = append(anchors, anchor{v, true, true})
				prev = v
				continue
			}
			child := r.children[el]
			switch child.kind {
			case spec.Loop:
				ls := fresh()
				lt := fresh()
				b.Edge(prev, ls)
				sub := emit(child, ls, lt)
				members = append(members, sub...)
				decls = append(decls, declared{child, ls, lt, sub})
				// Into a loop source is fine; out of a loop sink is fine.
				anchors = append(anchors, anchor{ls, false, true}, anchor{lt, true, false})
				prev = lt
			case spec.Fork:
				u := fresh()
				w := fresh()
				b.Edge(prev, u)
				sub := emit(child, u, w) // includes u and w
				members = append(members, sub...)
				decls = append(decls, declared{child, u, w, sub})
				// u and w are plain parent vertices.
				anchors = append(anchors, anchor{u, true, true}, anchor{w, true, true})
				prev = w
			}
		}
		b.Edge(prev, exit)
		anchors = append(anchors, anchor{exit, true, true})
		anchorsOf[r] = anchors
		membersOf[r] = members
		// The members of the region body exclude entry/exit for forks
		// (their terminals are parent vertices handled by the caller).
		return members
	}
	src := fresh()
	bSink := fresh()
	emit(root, src, bSink)

	// 5. Skip edges: random anchor pairs (a before b in chain order,
	// a.outOK, b.inOK), within a single region, not duplicating the chain.
	type pair struct{ u, v spec.ModuleName }
	seen := make(map[pair]bool)
	// The base path edges:
	var slots []pair
	for _, r := range nodes {
		as := anchorsOf[r]
		for i := 0; i < len(as); i++ {
			if !as[i].outOK {
				continue
			}
			for j := i + 1; j < len(as); j++ {
				if as[j].inOK {
					slots = append(slots, pair{as[i].name, as[j].name})
				}
			}
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	// Count base edges: exactly nG - 1 + number of chain connections?
	// The emitted base graph is a single path over all NG vertices, so it
	// has NG-1 edges; consume slots until MG is reached.
	needed := p.MG - (p.NG - 1)
	added := 0
	baseEdges := make(map[pair]bool)
	for _, e := range collectBuilderEdges(b) {
		baseEdges[pair{e[0], e[1]}] = true
	}
	for _, s := range slots {
		if added == needed {
			break
		}
		if baseEdges[s] || seen[s] {
			continue
		}
		seen[s] = true
		b.Edge(s.u, s.v)
		added++
	}
	if added < needed {
		return nil, fmt.Errorf("workload: only %d of %d skip edges placeable; increase nG or lower mG (%v)",
			added, needed, p)
	}

	// 6. Declare subgraphs.
	for _, d := range decls {
		internal := make([]spec.ModuleName, 0, len(d.internal))
		for _, m := range d.internal {
			if m != d.src && m != d.snk {
				internal = append(internal, m)
			}
		}
		if d.r.kind == spec.Fork {
			b.Fork(d.src, d.snk, internal...)
		} else {
			b.Loop(d.src, d.snk, internal...)
		}
	}
	s, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: generated spec invalid: %w (%v)", err, p)
	}
	// Exactness checks.
	if s.NumVertices() != p.NG || s.NumEdges() != p.MG {
		return nil, fmt.Errorf("workload: generated %dv/%de, wanted %dv/%de",
			s.NumVertices(), s.NumEdges(), p.NG, p.MG)
	}
	if s.Hier.NumNodes() != p.TGSize || s.Hier.MaxDepth != p.TGDepth {
		return nil, fmt.Errorf("workload: generated |TG|=%d [TG]=%d, wanted %d/%d",
			s.Hier.NumNodes(), s.Hier.MaxDepth, p.TGSize, p.TGDepth)
	}
	return s, nil
}

// collectBuilderEdges is a small helper to retrieve edges declared so far.
func collectBuilderEdges(b *spec.Builder) [][2]spec.ModuleName {
	return b.DeclaredEdges()
}
