package plan_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/plan"
	"repro/internal/run"
	"repro/internal/spec"
)

// constructCase is one call in a sequence: a run of a specification,
// possibly corrupted.
type constructCase struct {
	what   string
	s      *spec.Spec
	g      *dag.Graph
	origin []dag.VertexID
}

// interleavedCases walks the specifications through runs of alternating
// size (big, small, big) and puts after every valid run a corrupted
// one the oracle rejects, followed by a valid run again, so that
// scratch carried from one call into the next meets another spec, a
// smaller or larger run, and the state a walk left when it failed.
func interleavedCases(t *testing.T, rng *rand.Rand) []constructCase {
	t.Helper()
	specs := oracleSpecs()
	var cases []constructCase
	for _, name := range []string{"QBLAST", "paper", "ProDisc", "intro", "BioAID", "linear", "EBI", "ProScan", "PubMed"} {
		s := specs[name]
		for i, size := range []int{3000, 60, 2000} {
			r, _ := run.GenerateSized(s, rng, size)
			cases = append(cases, constructCase{fmt.Sprintf("%s run %d (%d vertices)", name, i, r.NumVertices()), s, r.Graph, r.Origin})
			for try := 0; try < 50; try++ {
				g, origin, how := mutateRun(rng, r)
				if _, err := plan.ConstructOracle(s, g, origin); err != nil {
					cases = append(cases, constructCase{fmt.Sprintf("%s run %d, %s", name, i, how), s, g, origin})
					break
				}
			}
		}
	}
	return cases
}

// Construct on scratch that earlier calls used, and on the pool's,
// builds what the oracle, a fresh construction, builds, node for node,
// and fails with the oracle's error.
func TestConstructReusedScratchMatchesOracle(t *testing.T) {
	cases := interleavedCases(t, rand.New(rand.NewSource(36)))
	failed := 0
	var sc plan.Scratch
	for _, c := range cases {
		want := describePlan(plan.ConstructOracle(c.s, c.g, c.origin))
		if got := describePlan(plan.ConstructWith(&sc, c.s, c.g, c.origin)); got != want {
			t.Fatalf("%s: on reused scratch\n got %.2000s\nwant %.2000s", c.what, got, want)
		}
		if got := describePlan(plan.Construct(c.s, c.g, c.origin)); got != want {
			t.Fatalf("%s: on pooled scratch\n got %.2000s\nwant %.2000s", c.what, got, want)
		}
		if _, err := plan.ConstructOracle(c.s, c.g, c.origin); err != nil {
			failed++
		}
	}
	if failed < 10 {
		t.Fatalf("only %d of %d calls failed mid-walk", failed, len(cases))
	}
}

// Concurrent calls each get their own scratch: under -race, goroutines
// constructing plans of different runs at once all get the oracle's
// plans.
func TestConstructConcurrent(t *testing.T) {
	cases := interleavedCases(t, rand.New(rand.NewSource(37)))
	want := make([]string, len(cases))
	for i, c := range cases {
		want[i] = describePlan(plan.ConstructOracle(c.s, c.g, c.origin))
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2 * len(cases) {
				i := (k*7 + w*5) % len(cases)
				c := cases[i]
				if got := describePlan(plan.Construct(c.s, c.g, c.origin)); got != want[i] {
					t.Errorf("worker %d, %s: plan differs from the oracle's", w, c.what)
					return
				}
			}
		}()
	}
	wg.Wait()
}
