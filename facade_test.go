package repro_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro"
)

func TestFacadeLineage(t *testing.T) {
	s := repro.PaperSpec()
	r, _ := repro.PaperRun(s)
	l, err := repro.LabelRun(r, repro.Dual)
	if err != nil {
		t.Fatal(err)
	}
	src, snk, err := r.Graph.FlowNetworkTerminals()
	if err != nil {
		t.Fatal(err)
	}
	down := repro.Downstream(r, src)
	if len(down) != r.NumVertices()-1 {
		t.Errorf("source downstream = %d, want everything", len(down))
	}
	up := repro.Upstream(r, snk)
	if len(up) != r.NumVertices()-1 {
		t.Errorf("sink upstream = %d, want everything", len(up))
	}
	if got := repro.UpstreamByLabels(l, snk); len(got) != len(up) {
		t.Errorf("label-scan upstream = %d, traversal = %d", len(got), len(up))
	}
	if got := repro.DownstreamByLabels(l, src); len(got) != len(down) {
		t.Errorf("label-scan downstream = %d, traversal = %d", len(got), len(down))
	}
	path := repro.Explain(r, src, snk)
	if len(path) < 2 || path[0] != src || path[len(path)-1] != snk {
		t.Errorf("Explain(source,sink) = %v", path)
	}
}

func TestFacadeEngineAndEvents(t *testing.T) {
	s, err := repro.StandInSpec("PubMed", 2)
	if err != nil {
		t.Fatal(err)
	}
	policy := repro.DefaultEnginePolicy()
	policy.MaxCopies = 6
	eng := repro.NewEngine(s, policy, rand.New(rand.NewSource(3)))
	tr, err := eng.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Makespan <= 0 || tr.Run.NumVertices() < s.NumVertices() {
		t.Fatal("trace implausible")
	}
	var logBuf bytes.Buffer
	if err := repro.WriteEventLog(&logBuf, tr.Events); err != nil {
		t.Fatal(err)
	}
	evs, err := repro.ReadEventLog(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	skel, err := repro.TCM.Build(s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	ol, err := repro.ReplayEvents(s, skel, evs)
	if err != nil {
		t.Fatal(err)
	}
	if ol.NumVertices() != tr.Run.NumVertices() {
		t.Fatal("event replay vertex count mismatch")
	}
	// Spot-check agreement with offline labeling.
	off, err := repro.LabelWithPlan(tr.Run, tr.Plan, skel)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 1000; q++ {
		u := repro.VertexID(rng.Intn(tr.Run.NumVertices()))
		v := repro.VertexID(rng.Intn(tr.Run.NumVertices()))
		if ol.Reachable(u, v) != off.Reachable(u, v) {
			t.Fatalf("online/offline mismatch at (%d,%d)", u, v)
		}
	}
}

func TestFacadeSnapshot(t *testing.T) {
	s := repro.PaperSpec()
	r, _ := repro.GenerateRun(s, rand.New(rand.NewSource(5)), 300)
	skel, _ := repro.Chain.Build(s.Graph)
	l, err := repro.LabelWithSkeleton(r, skel)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := repro.ReadLabelSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := snap.Bind(skel)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for q := 0; q < 1000; q++ {
		u := repro.VertexID(rng.Intn(r.NumVertices()))
		v := repro.VertexID(rng.Intn(r.NumVertices()))
		if bound.Reachable(u, v) != l.Reachable(u, v) {
			t.Fatal("snapshot answers diverged")
		}
	}
}

func TestFacadeDOT(t *testing.T) {
	s := repro.PaperSpec()
	r, p := repro.PaperRun(s)
	var spec, runDot, planDot bytes.Buffer
	if err := repro.WriteSpecDOT(&spec, s, "paper"); err != nil {
		t.Fatal(err)
	}
	if err := repro.WriteRunDOT(&runDot, r, p, "fig3"); err != nil {
		t.Fatal(err)
	}
	if err := repro.WritePlanDOT(&planDot, p, "fig7"); err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"spec": spec.String(), "run": runDot.String(), "plan": planDot.String()} {
		if !strings.HasPrefix(out, "digraph") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
			t.Errorf("%s DOT malformed", name)
		}
	}
}

func TestFacadeStoreBackends(t *testing.T) {
	s := repro.PaperSpec()
	rng := rand.New(rand.NewSource(7))

	// In-memory store: create, ingest, query — no disk anywhere.
	mem, err := repro.NewMemStore(s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	if kind := mem.Stat().Kind; kind != "mem" {
		t.Fatalf("NewMemStore backend kind = %q", kind)
	}
	r, _ := repro.GenerateRun(s, rng, 200)
	if err := mem.PutRun("r1", r, nil, repro.TCM); err != nil {
		t.Fatal(err)
	}
	sess, err := mem.OpenRun("r1", repro.TCM)
	if err != nil {
		t.Fatalf("mem OpenRun = %v", err)
	}
	if got, _, err := sess.Document(); err != nil || got.NumVertices() != r.NumVertices() {
		t.Fatalf("mem session document = %v", err)
	}

	// The same store reopened over its own backend handle.
	again, err := repro.OpenStoreOverBackend(mem.Backend())
	if err != nil || again.SpecName() != "paper" {
		t.Fatalf("OpenStoreOverBackend = %v", err)
	}
}
