// Package lineage answers the introduction's two motivating provenance
// workflows over labeled runs: tracing everything a good result was
// derived from (backward cones), finding everything a bad input affected
// (forward cones), and producing concrete dependency paths as evidence.
//
// Cone enumeration comes in two flavors: graph traversal (linear in the
// cone plus its edges) and the label path (O(n⁺_T + n) with no index:
// one test per plan context, then one scan of the context column; see
// core.Labeling.AppendCone). The label path
// needs only the stored labels, not the run graph, which is exactly the
// deployment the paper targets.
package lineage

import (
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/provdata"
	"repro/internal/run"
)

// Upstream returns every run vertex that can reach v (excluding v), by
// reverse breadth-first search — the set of module executions v's output
// was derived from.
func Upstream(r *run.Run, v dag.VertexID) []dag.VertexID {
	return cone(r.Graph, v, true)
}

// Downstream returns every run vertex reachable from v (excluding v) —
// the module executions affected by v's output.
func Downstream(r *run.Run, v dag.VertexID) []dag.VertexID {
	return cone(r.Graph, v, false)
}

func cone(g *dag.Graph, v dag.VertexID, reverse bool) []dag.VertexID {
	seen := make([]bool, g.NumVertices())
	seen[v] = true
	queue := []dag.VertexID{v}
	var out []dag.VertexID
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		var next []dag.VertexID
		if reverse {
			next = g.In(x)
		} else {
			next = g.Out(x)
		}
		for _, w := range next {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
				queue = append(queue, w)
			}
		}
	}
	return out
}

// UpstreamByLabels returns the upstream cone of v in ascending vertex
// ID using only reachability labels: one context comparison per plan
// context and at most one skeleton query per origin
// (core.Labeling.AppendCone). No run graph is required — only the
// labeling.
func UpstreamByLabels(l *core.Labeling, v dag.VertexID) []dag.VertexID {
	return l.AppendCone(nil, v, true)
}

// DownstreamByLabels is the forward counterpart of UpstreamByLabels.
func DownstreamByLabels(l *core.Labeling, v dag.VertexID) []dag.VertexID {
	return l.AppendCone(nil, v, false)
}

// Explain returns a concrete dependency path from u to v in the run
// graph (inclusive of both endpoints), or nil when v does not depend on
// u. It serves as human-checkable evidence for a positive reachability
// answer.
func Explain(r *run.Run, u, v dag.VertexID) []dag.VertexID {
	if u == v {
		return []dag.VertexID{u}
	}
	parent := make([]dag.VertexID, r.NumVertices())
	for i := range parent {
		parent[i] = -1
	}
	parent[u] = u
	queue := []dag.VertexID{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, w := range r.Graph.Out(x) {
			if parent[w] != -1 {
				continue
			}
			parent[w] = x
			if w == v {
				// Reconstruct.
				var path []dag.VertexID
				for at := v; ; at = parent[at] {
					path = append(path, at)
					if at == u {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, w)
		}
	}
	return nil
}

// ExplainData returns a derivation chain of data items from y to x
// (inclusive): consecutive items x_{i+1} produced by a module that read
// x_i, witnessing that x depends on y. Returns nil when no dependency
// exists.
func ExplainData(r *run.Run, ann *provdata.Annotation, x, y provdata.ItemID) []provdata.ItemID {
	if x == y {
		return []provdata.ItemID{x}
	}
	// BFS over items: item a -> item b when some consumer of a is (or
	// reaches through channels carrying b's producer)... operationally:
	// b's producer is a consumer of a, or reachable from one. For a
	// faithful item-granular chain we link a -> b when b's producer
	// consumed a.
	producedBy := make(map[dag.VertexID][]provdata.ItemID)
	for i, it := range ann.Items {
		producedBy[it.Producer] = append(producedBy[it.Producer], provdata.ItemID(i))
	}
	// consumersOf[v] = items read by vertex v.
	readBy := make(map[dag.VertexID][]provdata.ItemID)
	for i, it := range ann.Items {
		for _, c := range it.Consumers {
			readBy[c] = append(readBy[c], provdata.ItemID(i))
		}
	}
	prev := make(map[provdata.ItemID]provdata.ItemID)
	seen := map[provdata.ItemID]bool{y: true}
	queue := []provdata.ItemID{y}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, consumer := range ann.Items[a].Consumers {
			for _, b := range producedBy[consumer] {
				if seen[b] {
					continue
				}
				seen[b] = true
				prev[b] = a
				if b == x {
					var chain []provdata.ItemID
					for at := x; ; at = prev[at] {
						chain = append(chain, at)
						if at == y {
							break
						}
					}
					for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
						chain[i], chain[j] = chain[j], chain[i]
					}
					return chain
				}
				queue = append(queue, b)
			}
		}
	}
	return nil
}

// ConeSubgraph extracts the induced provenance subgraph of v: all
// upstream vertices plus v and every edge among them, with a vertex map
// back to the original run. Useful for visualizing or archiving the
// derivation of a single result.
func ConeSubgraph(r *run.Run, v dag.VertexID) (*dag.Graph, []dag.VertexID) {
	members := append(Upstream(r, v), v)
	idx := make(map[dag.VertexID]dag.VertexID, len(members))
	for i, m := range members {
		idx[m] = dag.VertexID(i)
	}
	g := dag.New(len(members))
	for _, m := range members {
		for _, w := range r.Graph.Out(m) {
			if j, ok := idx[w]; ok {
				g.AddEdge(idx[m], j)
			}
		}
	}
	return g, members
}
