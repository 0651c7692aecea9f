package dag

// LongestPath returns the maximum total vertex weight over all directed
// paths in the DAG (the critical path / makespan when weights are
// durations), together with one witnessing path in order. It returns
// ok=false when the graph is cyclic or empty.
func (g *Graph) LongestPath(weight func(v VertexID) int64) (total int64, path []VertexID, ok bool) {
	order, sorted := g.TopoSort()
	if !sorted || len(order) == 0 {
		return 0, nil, false
	}
	n := g.NumVertices()
	best := make([]int64, n)
	pred := make([]VertexID, n)
	for v := 0; v < n; v++ {
		best[v] = weight(VertexID(v))
		pred[v] = -1
	}
	var endV VertexID
	var endBest int64
	first := true
	for _, v := range order {
		for _, w := range g.list(int(v)) {
			if cand := best[v] + weight(w); cand > best[w] {
				best[w] = cand
				pred[w] = v
			}
		}
		if first || best[v] > endBest {
			// best[v] may still improve later; final maximum taken below.
			first = false
		}
	}
	for v := 0; v < n; v++ {
		if best[v] > endBest || v == 0 {
			endBest = best[v]
			endV = VertexID(v)
		}
	}
	for at := endV; at != -1; at = pred[at] {
		path = append(path, at)
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return endBest, path, true
}
