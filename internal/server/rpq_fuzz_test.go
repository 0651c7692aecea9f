package server

import (
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"fmt"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"

	"repro/internal/rpq"
)

// FuzzServerRPQ throws hostile bodies at the path-query endpoint:
// whatever the bytes, POST /rpq must answer 200, 4xx or 413 — never
// 5xx, never a panic. Pathological-but-parseable patterns whose
// determinization would blow up must come back as 400 via the DFA
// state budget, not as runaway memory. A 200 must carry a decodable
// verdict. Mirrors FuzzIngestRun one endpoint over.
func FuzzServerRPQ(f *testing.F) {
	sp := spec.PaperSpec()
	st, err := store.NewMem(sp, "paper")
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	r, _ := run.GenerateSized(sp, rng, 80)
	if err := st.PutRun("r1", r, nil, label.TCM{}); err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Store: st})
	if err != nil {
		f.Fatal(err)
	}

	// Seeds: well-formed requests, wrong-shape JSON, raw garbage, and a
	// state-budget torture pattern (the (a|b)* a .^k family needs ~2^k
	// DFA states).
	f.Add(`{"run":"r1","from":"0","to":"1","pattern":".*"}`)
	f.Add(`{"run":"r1","from":"0","to":"1","pattern":"()"}`)
	f.Add(`{"run":"r1","from":"0","to":"1","pattern":"(a|b)* d"}`)
	f.Add(`{"run":"r1","from":"0","to":"1","pattern":"(a|b)* a . . . . . . . . . . . . . ."}`)
	f.Add(`{"run":"r1","from":"0","to":"1","pattern":"((((("}`)
	f.Add(`{"run":"r1","from":"0","to":"1","pattern":"[a-z]{3}"}`)
	f.Add(`{"run":"nosuchrun","from":"0","to":"1","pattern":"."}`)
	f.Add(`{"run":"r1","from":"-1","to":"99999","pattern":"."}`)
	f.Add(`{"run":"r1"}`)
	f.Add(`{"pattern":42}`)
	f.Add(`not json at all`)
	f.Add(``)
	f.Add(`{"run":"r1","from":"0","to":"1","pattern":"` + strings.Repeat("a ", 300) + `"}`)

	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/rpq", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		s.ServeHTTP(rec, req)
		switch {
		case rec.Code >= 500:
			t.Fatalf("/rpq answered %d for a client-supplied body %.80q: %s", rec.Code, body, rec.Body.String())
		case rec.Code == 200:
			if !strings.Contains(rec.Body.String(), `"match":`) {
				t.Fatalf("/rpq answered 200 without a verdict: %s", rec.Body.String())
			}
		}
	})
}

// TestRPQStateBudgetOverWire pins the pathological-pattern contract at
// the HTTP layer: an evaluation that exceeds the DFA state budget is a
// 400 naming the budget, not a 500 and not a hang. The budget is set
// to one state — only the start subset fits, so the first product step
// over any real edge trips it deterministically.
func TestRPQStateBudgetOverWire(t *testing.T) {
	sp := spec.PaperSpec()
	st, err := store.NewMem(sp, "paper")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	r, _ := run.GenerateSized(sp, rng, 60)
	if err := st.PutRun("r1", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	s.rpqMaxStates = 1
	// Any edge (u, v) will do: pattern "." steps the DFA from the start
	// subset to a distinct accept subset, the second state.
	var u, v dag.VertexID
	found := false
	for x := 0; x < r.NumVertices() && !found; x++ {
		if out := r.Graph.Out(dag.VertexID(x)); len(out) > 0 {
			u, v, found = dag.VertexID(x), out[0], true
		}
	}
	if !found {
		t.Fatal("generated run has no edges")
	}
	body := fmt.Sprintf(`{"run":"r1","from":"%d","to":"%d","pattern":"."}`, u, v)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/rpq", strings.NewReader(body)))
	if rec.Code != 400 || !strings.Contains(rec.Body.String(), "DFA states") {
		t.Fatalf("budget-1 eval: status %d body %s, want 400 naming the DFA state budget", rec.Code, rec.Body.String())
	}
	// The default budget answers the same query fine.
	s2, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if rpq.DefaultMaxDFAStates < 16 {
		t.Fatalf("DefaultMaxDFAStates = %d, suspiciously small", rpq.DefaultMaxDFAStates)
	}
	rec = httptest.NewRecorder()
	s2.ServeHTTP(rec, httptest.NewRequest("POST", "/rpq", strings.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("default budget: status %d body %s", rec.Code, rec.Body.String())
	}
}
