package rpq

import (
	"errors"
	"testing"
)

// FuzzRPQParse throws hostile pattern text at the full pipeline: parse,
// NFA construction, determinization under a small budget, and both
// evaluators on a small graph. A pattern either fails with a typed
// *ParseError or evaluates without panicking, and the DFA never exceeds
// its state budget — the contract the server's 4xx mapping relies on.
func FuzzRPQParse(f *testing.F) {
	f.Add("a b c")
	f.Add("(a|b)* c")
	f.Add(".* a .+ b?")
	f.Add("a**")
	f.Add("((((a))))")
	f.Add("a|b|")
	f.Add("()")
	f.Add("(a|b)* a . . . . . . . . . .")
	f.Add("[a-z]{3}")
	f.Add("\\(")
	f.Add("|||***")
	f.Add("nosuchmodule .")
	f.Fuzz(func(t *testing.T, pattern string) {
		p, err := Compile(pattern, testLookup)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Compile(%q) failed with untyped error %v", pattern, err)
			}
			return
		}
		g, syms := diamond()
		const budget = 64
		m := NewMatcher(p, budget)
		got, err := m.Eval(g, syms, nil, 0, 3)
		if err != nil && !errors.Is(err, ErrStateBudget) {
			t.Fatalf("Eval(%q) failed with unexpected error %v", pattern, err)
		}
		if m.NumDFAStates() > budget {
			t.Fatalf("Eval(%q) built %d DFA states over budget %d", pattern, m.NumDFAStates(), budget)
		}
		if err == nil {
			if naive := g.MatchAutomaton(0, 3, syms, p); naive != got {
				t.Fatalf("Eval(%q) = %v but the naive oracle says %v", pattern, got, naive)
			}
		}
	})
}
