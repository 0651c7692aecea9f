package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
)

// oracleSpec is one specification of the with-plan oracle and its
// skeleton labeling.
type oracleSpec struct {
	name string
	s    *spec.Spec
	skel label.Labeling
}

// oracleSpecs returns the paper specification, the introduction's, the
// six Table-1 stand-ins (seed 1) and sharedTerminalSpec, each with its
// TCM skeleton.
func oracleSpecs(t testing.TB) []oracleSpec {
	t.Helper()
	specs := []oracleSpec{{name: "paper", s: spec.PaperSpec()}, {name: "intro", s: spec.IntroSpec()}}
	for _, w := range workload.RealWorkflows() {
		specs = append(specs, oracleSpec{name: w.Name, s: workload.MustStandIn(w.Name, 1)})
	}
	specs = append(specs, oracleSpec{name: "shared", s: sharedTerminalSpec()})
	for i := range specs {
		skel, err := label.TCM{}.Build(specs[i].s.Graph)
		if err != nil {
			t.Fatal(err)
		}
		specs[i].skel = skel
	}
	return specs
}

// sharedTerminalSpec has loops that share a terminal with the region
// around them, which none of the other specifications has: loop s..b
// shares the run's source, loop a..b inside it shares its sink, and
// fork c..t shares the run's sink. A terminal-sharing loop's first
// (last) copy reuses the enclosing copy's source (sink) vertex and
// claims it as its context.
func sharedTerminalSpec() *spec.Spec {
	b := spec.NewBuilder()
	b.Chain("s", "a", "b", "c", "d", "t")
	b.Loop("s", "b", "a")
	b.Loop("a", "b")
	b.Fork("c", "t", "d")
	return b.MustBuild()
}

// checkWithPlan labels the run of et twice, with the plan Materialize
// returns and with the plan plan.Construct rebuilds from the graph, and
// fails t unless the two answer every vertex pair alike. It returns
// whether the two label snapshots are byte-equal.
func checkWithPlan(t *testing.T, o oracleSpec, et *run.ExecTree) bool {
	t.Helper()
	r, p, err := run.Materialize(o.s, et)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.LabelRun(r, o.skel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.LabelRunWithPlan(r, p, o.skel)
	if err != nil {
		t.Fatal(err)
	}
	n := r.NumVertices()
	for u := range n {
		for v := range n {
			a, b := dag.VertexID(u), dag.VertexID(v)
			if got.Reachable(a, b) != want.Reachable(a, b) {
				t.Fatalf("%s, %d vertices: Reachable(%d, %d) is %v with the materialized plan, %v with the constructed one",
					o.name, n, u, v, got.Reachable(a, b), want.Reachable(a, b))
			}
		}
	}
	var x, y bytes.Buffer
	if _, err := got.WriteTo(&x); err != nil {
		t.Fatal(err)
	}
	if _, err := want.WriteTo(&y); err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(x.Bytes(), y.Bytes())
}

// A stream's /finish labels its run with the plan its copies give
// (core.LabelRunWithPlan) instead of plan.Construct's. The two plans may
// number and order nodes differently, so the labels may differ, but
// every answer must not: checked over random execution trees of both
// generators on every specification. On the paper specification the
// label snapshots are byte-equal too, so a finished stream stores the
// labels a PUT of its run would.
func TestMaterializedPlanMatchesLabelRun(t *testing.T) {
	for _, o := range oracleSpecs(t) {
		rng := rand.New(rand.NewSource(26))
		for i := range 12 {
			var et *run.ExecTree
			if i%2 == 0 {
				et = run.RandomExecSteps(o.s, rng, rng.Intn(80))
			} else {
				et = run.RandomExecExpand(o.s, rng, 1+rng.Float64()*0.8)
			}
			if same := checkWithPlan(t, o, et); !same && o.name == "paper" {
				t.Errorf("paper run %d: the materialized plan's snapshot differs from plan.Construct's", i)
			}
		}
	}
}

// FuzzMaterializedPlanOracle is TestMaterializedPlanMatchesLabelRun on
// fuzzed execution trees: which specification, the generator, its seed
// and its size.
func FuzzMaterializedPlanOracle(f *testing.F) {
	specs := oracleSpecs(f)
	f.Add(uint8(0), int64(1), uint8(30), false)
	f.Add(uint8(1), int64(2), uint8(10), true)
	f.Add(uint8(4), int64(3), uint8(60), false)
	f.Add(uint8(7), int64(4), uint8(50), true)
	f.Fuzz(func(t *testing.T, which uint8, seed int64, size uint8, expand bool) {
		o := specs[int(which)%len(specs)]
		rng := rand.New(rand.NewSource(seed))
		var et *run.ExecTree
		if expand {
			et = run.RandomExecExpand(o.s, rng, 1+float64(size)/320)
		} else {
			et = run.RandomExecSteps(o.s, rng, int(size)%100)
		}
		if et.EstimateVertices(o.s) > 800 {
			return
		}
		if same := checkWithPlan(t, o, et); !same && o.name == "paper" {
			t.Fatal("the materialized plan's snapshot differs from plan.Construct's on the paper specification")
		}
	})
}
