package rpq

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dag"
)

// testLookup resolves single-letter names a..e to symbols 0..4.
func testLookup(name string) (dag.VertexID, bool) {
	if len(name) == 1 && name[0] >= 'a' && name[0] <= 'e' {
		return dag.VertexID(name[0] - 'a'), true
	}
	return 0, false
}

func compile(t *testing.T, pattern string) *Prog {
	t.Helper()
	p, err := Compile(pattern, testLookup)
	if err != nil {
		t.Fatalf("Compile(%q): %v", pattern, err)
	}
	return p
}

// diamond returns the graph 0 -> {1,2} -> 3 with labels a,b,c,d.
func diamond() (*dag.Graph, []dag.VertexID) {
	g := dag.FromEdges(4, []dag.Edge{{Tail: 0, Head: 1}, {Tail: 0, Head: 2}, {Tail: 1, Head: 3}, {Tail: 2, Head: 3}})
	return g, []dag.VertexID{0, 1, 2, 3}
}

func TestMatcherEval(t *testing.T) {
	g, syms := diamond()
	cases := []struct {
		pattern  string
		from, to dag.VertexID
		want     bool
	}{
		{"b d", 0, 3, true},
		{"c d", 0, 3, true},
		{"b c", 0, 3, false},
		{". .", 0, 3, true},
		{".", 0, 3, false},
		{".*", 0, 3, true},
		{".+", 0, 3, true},
		{"(b|c) d", 0, 3, true},
		{"b* d", 0, 3, true}, // 0->1->3 spells "b d": one b, then d
		{"d", 1, 3, true},
		{"d", 2, 3, true},
		{"b", 0, 1, true},
		{"c", 0, 1, false},
		{"", 0, 0, true},
		{"", 0, 3, false},
		{"a", 0, 0, false},
		{".*", 2, 2, true},
		{"nosuchmodule", 0, 3, false},
		{"nosuchmodule|b d", 0, 3, true},
		{"b? d", 0, 3, true},
		{"(b|c)+ d?", 0, 3, true},
	}
	for _, tc := range cases {
		p := compile(t, tc.pattern)
		m := NewMatcher(p, 0)
		got, err := m.Eval(g, syms, nil, tc.from, tc.to)
		if err != nil {
			t.Fatalf("Eval(%q, %d->%d): %v", tc.pattern, tc.from, tc.to, err)
		}
		if got != tc.want {
			t.Errorf("Eval(%q, %d->%d) = %v, want %v", tc.pattern, tc.from, tc.to, got, tc.want)
		}
		if naive := g.MatchAutomaton(tc.from, tc.to, syms, p); naive != tc.want {
			t.Errorf("MatchAutomaton(%q, %d->%d) = %v, want %v", tc.pattern, tc.from, tc.to, naive, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"(", ")", "a)", "(a", "*", "a|*", "(+)", "a**b)",
		"[abc]", "a{3}", "a\\b", "^a$", `"a"`,
	}
	for _, pattern := range bad {
		_, err := Compile(pattern, testLookup)
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Compile(%q) = %v, want *ParseError", pattern, err)
		}
	}
	long := make([]byte, MaxPatternLen+1)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := Compile(string(long), testLookup); err == nil {
		t.Error("Compile accepted an over-length pattern")
	}
	deep := ""
	for i := 0; i <= MaxNesting; i++ {
		deep += "("
	}
	deep += "a"
	for i := 0; i <= MaxNesting; i++ {
		deep += ")"
	}
	var pe *ParseError
	if _, err := Compile(deep, testLookup); !errors.As(err, &pe) {
		t.Errorf("Compile(deeply nested) = %v, want *ParseError", err)
	}
}

// TestStateBudget drives determinization over a two-vertex cyclic graph
// (every word over {a,b} is a path), so the classic exponential pattern
// (a|b)* a (.x10) must exhaust a small DFA budget instead of building
// ~2^10 states.
func TestStateBudget(t *testing.T) {
	pattern := "(a|b)* a . . . . . . . . . ."
	p := compile(t, pattern)
	g := dag.FromEdges(3, []dag.Edge{{Tail: 0, Head: 1}, {Tail: 1, Head: 0}, {Tail: 0, Head: 0}, {Tail: 1, Head: 1}})
	syms := []dag.VertexID{0, 1, 2} // a, b, c; vertex 2 is isolated
	m := NewMatcher(p, 32)
	_, err := m.Eval(g, syms, nil, 0, 2)
	if !errors.Is(err, ErrStateBudget) {
		t.Fatalf("Eval = %v, want ErrStateBudget", err)
	}
	if m.NumDFAStates() > 32 {
		t.Fatalf("matcher built %d DFA states, budget was 32", m.NumDFAStates())
	}
	// A generous budget evaluates the same query fine (to false: vertex
	// 2 has no in-edges).
	m = NewMatcher(p, 0)
	if got, err := m.Eval(g, syms, nil, 0, 2); err != nil || got {
		t.Fatalf("Eval with default budget = (%v, %v), want (false, nil)", got, err)
	}
}

// TestEvalAgainstOracle cross-checks the pruned DFA engine against the
// naive dag.MatchAutomaton oracle — and against itself without pruning —
// on random small DAGs and random patterns.
func TestEvalAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"a", "b", "c"}
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		syms := make([]dag.VertexID, n)
		for v := range syms {
			syms[v] = dag.VertexID(rng.Intn(3))
		}
		var edges []dag.Edge
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					edges = append(edges, dag.Edge{Tail: dag.VertexID(i), Head: dag.VertexID(j)})
				}
			}
		}
		g := dag.FromEdges(n, edges)
		tc, ok := g.TransitiveClosure()
		if !ok {
			t.Fatal("random DAG has a cycle")
		}
		for k := 0; k < 5; k++ {
			pattern := RandomPattern(rng, names, 3)
			p, err := Compile(pattern, testLookup)
			if err != nil {
				t.Fatalf("RandomPattern produced uncompilable %q: %v", pattern, err)
			}
			m := NewMatcher(p, 0)
			u := dag.VertexID(rng.Intn(n))
			v := dag.VertexID(rng.Intn(n))
			want := g.MatchAutomaton(u, v, syms, p)
			pruned, err := m.Eval(g, syms, tc.Reachable, u, v)
			if err != nil {
				t.Fatalf("Eval(%q): %v", pattern, err)
			}
			plain, err := NewMatcher(p, 0).Eval(g, syms, nil, u, v)
			if err != nil {
				t.Fatalf("Eval(%q, no pruning): %v", pattern, err)
			}
			if pruned != want || plain != want {
				t.Fatalf("trial %d: pattern %q %d->%d: oracle=%v pruned=%v plain=%v",
					trial, pattern, u, v, want, pruned, plain)
			}
		}
	}
}
