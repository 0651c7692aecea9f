// Package lineage answers the introduction's two motivating provenance
// workflows over labeled runs: tracing everything a good result was
// derived from (backward cones), finding everything a bad input affected
// (forward cones), and producing concrete dependency paths as evidence.
//
// Cone enumeration comes in two flavors: graph traversal (linear in the
// cone plus its edges) and the label path (one test per plan context,
// then a walk of the runs of consecutive vertices that share a context,
// skipping or taking whole the ones the test decided; see
// core.Labeling.AppendCone). The label path
// needs only the stored labels, not the run graph, which is exactly the
// deployment the paper targets.
package lineage

import (
	"repro/internal/core"
	"repro/internal/dag"
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
