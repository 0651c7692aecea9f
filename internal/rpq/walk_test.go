package rpq

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
)

// oracleCheck evaluates pairs in order with one Matcher and one
// mapMatcher, each persisting its DFA across the pairs, and fails unless
// both return the same answers and errors, probe reach with the same
// calls in the same order, and build the same DFA states in the same
// order.
func oracleCheck(t testing.TB, p *Prog, maxStates int, g *dag.Graph, syms []dag.VertexID, reach func(u, v dag.VertexID) bool, pairs [][2]dag.VertexID) {
	t.Helper()
	m, o := NewMatcher(p, maxStates), newMapMatcher(p, maxStates)
	var got, want [][2]dag.VertexID
	probe := func(log *[][2]dag.VertexID) func(u, v dag.VertexID) bool {
		if reach == nil {
			return nil
		}
		return func(u, v dag.VertexID) bool {
			*log = append(*log, [2]dag.VertexID{u, v})
			return reach(u, v)
		}
	}
	gotReach, wantReach := probe(&got), probe(&want)
	for _, pr := range pairs {
		got, want = got[:0], want[:0]
		a, errA := m.Eval(g, syms, gotReach, pr[0], pr[1])
		b, errB := o.Eval(g, syms, wantReach, pr[0], pr[1])
		if a != b || errA != errB {
			t.Fatalf("%q %d->%d: Eval = (%v, %v), map oracle = (%v, %v)", p.Pattern(), pr[0], pr[1], a, errA, b, errB)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%q %d->%d: %d reach probes, map oracle made %d, or in another order", p.Pattern(), pr[0], pr[1], len(got), len(want))
		}
		if m.NumDFAStates() != o.NumDFAStates() {
			t.Fatalf("%q %d->%d: %d DFA states, map oracle built %d", p.Pattern(), pr[0], pr[1], m.NumDFAStates(), o.NumDFAStates())
		}
		for i := range m.states {
			if !slices.Equal(m.states[i].set, o.states[i].set) || m.states[i].accept != o.states[i].accept {
				t.Fatalf("%q: DFA state %d is %v, map oracle's is %v", p.Pattern(), i, m.states[i].set, o.states[i].set)
			}
		}
	}
}

// randomDAG returns a DAG of n vertices (edges only from lower to
// higher IDs, each present with probability 1/density) labeled with
// symbols 0..nsyms-1.
func randomDAG(rng *rand.Rand, n, density, nsyms int) (*dag.Graph, []dag.VertexID) {
	syms := make([]dag.VertexID, n)
	for v := range syms {
		syms[v] = dag.VertexID(rng.Intn(nsyms))
	}
	var edges []dag.Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Intn(density) == 0 {
				edges = append(edges, dag.Edge{Tail: dag.VertexID(i), Head: dag.VertexID(j)})
			}
		}
	}
	return dag.FromEdges(n, edges), syms
}

// TestWalkMatchesMapOracle holds the dense walk to the map-based walk it
// replaced on random DAGs and patterns, with and without pruning and
// under budgets small enough to fire: same answers, same reach probes,
// same DFA states. Symbols 5 and 6 are named by no pattern (class 0).
func TestWalkMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	names := []string{"a", "b", "c", "d", "e"}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(40)
		g, syms := randomDAG(rng, n, 2+rng.Intn(6), 7)
		tc, _ := g.TransitiveClosure()
		pairs := make([][2]dag.VertexID, 12)
		for i := range pairs {
			pairs[i] = [2]dag.VertexID{dag.VertexID(rng.Intn(n)), dag.VertexID(rng.Intn(n))}
		}
		p := compile(t, RandomPattern(rng, names, 3))
		budget := 0
		if trial%4 == 0 {
			budget = 1 + rng.Intn(6)
		}
		oracleCheck(t, p, budget, g, syms, tc.Reachable, pairs)
		oracleCheck(t, p, budget, g, syms, nil, pairs)
	}
}

// layered returns a DAG whose every path spells "c w d" for each word w
// over {a, b} of length k: a source labeled c, k layers of an a-vertex
// and a b-vertex, each joined to both vertices of the next layer, and a
// sink labeled d.
func layered(k int) (g *dag.Graph, syms []dag.VertexID, src, sink dag.VertexID) {
	n := 2*k + 2
	syms = make([]dag.VertexID, n)
	sink = dag.VertexID(n - 1)
	syms[src], syms[sink] = 2, 3
	var edges []dag.Edge
	for l := 0; l < k; l++ {
		a, b := dag.VertexID(1+2*l), dag.VertexID(2+2*l)
		syms[a], syms[b] = 0, 1
		if l == 0 {
			edges = append(edges, dag.Edge{Tail: src, Head: a}, dag.Edge{Tail: src, Head: b})
		}
		next := []dag.VertexID{a + 2, b + 2}
		if l == k-1 {
			next = []dag.VertexID{sink}
		}
		for _, x := range []dag.VertexID{a, b} {
			for _, y := range next {
				edges = append(edges, dag.Edge{Tail: x, Head: y})
			}
		}
	}
	return dag.FromEdges(n, edges), syms, src, sink
}

// TestWideStates drives a walk past 64 DFA states on one vertex, so
// visits of states that do not fit a vertex's bit mask go through the
// wide set. "(a|b)* a" followed by seven wildcards tracks the last eight
// symbols: each last-layer vertex is reached in 128 DFA states.
func TestWideStates(t *testing.T) {
	g, syms, src, sink := layered(10)
	tc, _ := g.TransitiveClosure()
	last := sink - 1
	for _, pattern := range []string{
		"(a|b)* a . . . . . . . d", // true: paths with an a eight symbols before d
		"(a|b)* a . . . . . . . c", // false, after the full walk
	} {
		p := compile(t, pattern)
		m := NewMatcher(p, 0)
		w := new(walk)
		got, err := m.eval(w, g, syms, tc.Reachable, src, sink)
		if err != nil {
			t.Fatal(err)
		}
		if want := g.MatchAutomaton(src, sink, syms, p); got != want {
			t.Fatalf("%q: Eval = %v, MatchAutomaton = %v", pattern, got, want)
		}
		if w.nwide == 0 {
			t.Fatalf("%q: the walk visited no DFA state >= 64", pattern)
		}
		o := newMapMatcher(p, 0)
		if _, err := o.Eval(g, syms, tc.Reachable, src, sink); err != nil {
			t.Fatal(err)
		}
		states := 0
		for k := range o.visited {
			if dag.VertexID(k>>32) == last {
				states++
			}
		}
		if states <= 64 {
			t.Fatalf("%q: vertex %d was visited in %d DFA states, want > 64", pattern, last, states)
		}
		oracleCheck(t, p, 0, g, syms, tc.Reachable, [][2]dag.VertexID{{src, sink}, {src, last}, {1, sink}})
		oracleCheck(t, p, 0, g, syms, nil, [][2]dag.VertexID{{src, sink}, {src, last}})
	}
}

// TestVisitedEpochWraparound walks with one scratch twice: once to fill
// its marks and wide set at epoch 1, then again with the epoch about to
// wrap. The wrap must clear every stamp: without that, the first walk's
// marks would read as visited at the new epoch 1 and the second walk
// would find nothing.
func TestVisitedEpochWraparound(t *testing.T) {
	g, syms, src, sink := layered(10)
	tc, _ := g.TransitiveClosure()
	p := compile(t, "(a|b)* a . . . . . . . d")
	m := NewMatcher(p, 0)
	w := new(walk)
	for i, after := range []uint32{1, 1, 2} {
		if i == 1 {
			w.epoch = math.MaxUint32
		}
		got, err := m.eval(w, g, syms, tc.Reachable, src, sink)
		if err != nil || !got {
			t.Fatalf("walk %d: Eval = (%v, %v), want (true, nil)", i, got, err)
		}
		if w.epoch != after {
			t.Fatalf("walk %d: epoch %d after reset, want %d", i, w.epoch, after)
		}
	}
	oracleCheck(t, p, 0, g, syms, tc.Reachable, [][2]dag.VertexID{{src, sink}})
}

// TestClassTable checks the symbol classes: one per named symbol in
// order of first appearance, 0 for every other symbol, negative and
// out-of-table ones included.
func TestClassTable(t *testing.T) {
	p := compile(t, "c (a|nosuch)* . c")
	if p.classes != 3 {
		t.Fatalf("classes = %d, want 3", p.classes)
	}
	for sym, want := range map[dag.VertexID]int{2: 1, 0: 2, 1: 0, 3: 0, 4: 0, 99: 0, -1: 0} {
		if got := p.classOf(sym); got != want {
			t.Errorf("classOf(%d) = %d, want %d", sym, got, want)
		}
	}
	if p := compile(t, ".*"); p.classes != 1 || len(p.class) != 0 {
		t.Errorf("'.*' has %d classes and a %d-entry table, want 1 and 0", p.classes, len(p.class))
	}
}

// FuzzRPQEvalOracle fuzzes the whole walk: a DAG of up to 32 vertices
// (each pair of edge bytes is one edge, oriented from the lower ID), a
// symbol column over a..e plus three symbols no pattern names, a
// pattern, one pair and a state budget. Eval with pruning by the
// transitive closure and without pruning must both agree with
// dag.MatchAutomaton and with the map-based walk, probe for probe;
// ErrStateBudget is only returned with the budget exhausted, and no
// matcher builds more states than its budget.
func FuzzRPQEvalOracle(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 0, 2, 1, 3, 2, 3}, []byte{0, 1, 2, 3}, "b d", uint8(0), uint8(3), uint8(64))
	f.Add(uint8(6), []byte{0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 0, 5}, []byte{5, 0, 6, 1, 7, 3}, "(a|.)* . d?", uint8(0), uint8(5), uint8(3))
	f.Add(uint8(31), []byte(strings.Repeat("\x00\x01\x01\x02\x02\x03\x00\x03", 8)), []byte{0, 1, 0, 1, 0, 1}, "(a|b)* a . . .", uint8(0), uint8(3), uint8(8))
	f.Add(uint8(1), []byte{}, []byte{}, "()", uint8(0), uint8(0), uint8(1))
	f.Add(uint8(8), []byte{0, 7, 1, 7, 2, 7}, []byte{4}, "nosuch|e+", uint8(2), uint8(7), uint8(2))
	f.Fuzz(func(t *testing.T, nv uint8, edgeBytes, symBytes []byte, pattern string, from, to, budget uint8) {
		p, err := Compile(pattern, testLookup)
		if err != nil {
			return
		}
		n := 1 + int(nv)%32
		var edges []dag.Edge
		for i := 0; i+1 < len(edgeBytes); i += 2 {
			a, b := dag.VertexID(int(edgeBytes[i])%n), dag.VertexID(int(edgeBytes[i+1])%n)
			if a != b {
				edges = append(edges, dag.Edge{Tail: min(a, b), Head: max(a, b)})
			}
		}
		g := dag.FromEdges(n, edges)
		syms := make([]dag.VertexID, n)
		for v := range syms {
			if len(symBytes) > 0 {
				syms[v] = dag.VertexID(symBytes[v%len(symBytes)] % 8)
			}
		}
		tc, _ := g.TransitiveClosure()
		u, v := dag.VertexID(int(from)%n), dag.VertexID(int(to)%n)
		limit := 1 + int(budget)%64
		want := g.MatchAutomaton(u, v, syms, p)
		for _, reach := range []func(u, v dag.VertexID) bool{tc.Reachable, nil} {
			m := NewMatcher(p, limit)
			got, err := m.Eval(g, syms, reach, u, v)
			if m.NumDFAStates() > limit {
				t.Fatalf("%q: %d DFA states over budget %d", pattern, m.NumDFAStates(), limit)
			}
			switch {
			case errors.Is(err, ErrStateBudget):
				if m.NumDFAStates() != limit {
					t.Fatalf("%q: ErrStateBudget with %d of %d states built", pattern, m.NumDFAStates(), limit)
				}
			case err != nil:
				t.Fatalf("%q: %v", pattern, err)
			case got != want:
				t.Fatalf("%q %d->%d (pruned %v): Eval = %v, MatchAutomaton = %v", pattern, u, v, reach != nil, got, want)
			}
			oracleCheck(t, p, limit, g, syms, reach, [][2]dag.VertexID{{u, v}})
		}
	})
}

// TestConcurrentWalks runs matchers on several goroutines at once, so
// the pooled walk scratch passes between them (run it under -race).
func TestConcurrentWalks(t *testing.T) {
	g, syms, src, sink := layered(8)
	tc, _ := g.TransitiveClosure()
	p := compile(t, "(a|b)* a . . . . . . . d")
	want := g.MatchAutomaton(src, sink, syms, p)
	errs := make(chan error, 4)
	for range cap(errs) {
		go func() {
			for i := 0; i < 50; i++ {
				got, err := NewMatcher(p, 0).Eval(g, syms, tc.Reachable, src, sink)
				if err == nil && got != want {
					err = fmt.Errorf("Eval = %v, MatchAutomaton = %v", got, want)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range cap(errs) {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
