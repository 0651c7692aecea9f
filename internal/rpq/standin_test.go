package rpq_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/loadgen"
	"repro/internal/rpq"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// standIn returns a labeled QBLAST stand-in run of about n vertices and
// the spec's module lookup.
func standIn(t *testing.T, n int) (*run.Run, *core.Labeling, func(string) (dag.VertexID, bool)) {
	t.Helper()
	sp, err := workload.StandIn("QBLAST", 1)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(int64(n))), n)
	skel, err := label.TCM{}.Build(sp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.LabelRun(r, skel)
	if err != nil {
		t.Fatal(err)
	}
	return r, l, func(name string) (dag.VertexID, bool) { return sp.VertexOf(spec.ModuleName(name)) }
}

// TestStandInMatchesMapOracle holds the dense walk to the map-based walk
// on the traffic perfbench and provload send: patterns from
// loadgen.RPQPatternPool over a 5,000-vertex QBLAST stand-in, pruned by
// the run's labels. perfbench ranks its /rpq templates by the reach
// probes and DFA states of exactly these walks, so both must match the
// old walk's, call for call.
func TestStandInMatchesMapOracle(t *testing.T) {
	r, l, lookup := standIn(t, 5000)
	n := r.NumVertices()
	rng := rand.New(rand.NewSource(29))
	for seed := int64(1); seed <= 4; seed++ {
		for _, pat := range loadgen.RPQPatternPool(r.Spec, 8, seed) {
			p, err := rpq.Compile(pat, lookup)
			if err != nil {
				t.Fatalf("%q: %v", pat, err)
			}
			pairs := make([][2]dag.VertexID, 0, 16)
			for len(pairs) < cap(pairs) {
				u, v := dag.VertexID(rng.Intn(n)), dag.VertexID(rng.Intn(n))
				if len(pairs)%2 == 0 && !l.Reachable(u, v) {
					continue // half the pairs walk, half may be refused by the labels
				}
				pairs = append(pairs, [2]dag.VertexID{u, v})
			}
			rpq.OracleCheck(t, p, 0, r.Graph, r.Origin, l.Reachable, pairs)
		}
	}
}

// TestWalkAllocationFlat checks that a walk allocates nothing per state
// it visits: NewMatcher + Eval over a walking pair allocates as often on
// a 1,000-vertex run as on a 5,000-vertex one. The pair is the run's
// first vertex and its sink, and the pattern never matches, so the walk
// covers the whole run.
func TestWalkAllocationFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	allocs := make([]float64, 0, 2)
	for _, size := range []int{1000, 5000} {
		r, l, lookup := standIn(t, size)
		p, err := rpq.Compile(".* nosuchmodule", lookup)
		if err != nil {
			t.Fatal(err)
		}
		n := r.NumVertices()
		sink := dag.VertexID(0)
		for len(r.Graph.Out(sink)) > 0 {
			sink++
		}
		probes := 0
		reach := func(u, v dag.VertexID) bool {
			probes++
			return l.Reachable(u, v)
		}
		eval := func() {
			if _, err := rpq.NewMatcher(p, 0).Eval(r.Graph, r.Origin, reach, 0, sink); err != nil {
				t.Fatal(err)
			}
		}
		eval()
		if probes < n/2 {
			t.Fatalf("n=%d: the walk made %d reach probes, want a walk over most of the run", n, probes)
		}
		allocs = append(allocs, testing.AllocsPerRun(50, eval))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("NewMatcher+Eval allocates %v times on 1,000 vertices and %v on 5,000", allocs[0], allocs[1])
	}
	t.Logf("NewMatcher+Eval: %v allocs on either run", allocs[0])
}
