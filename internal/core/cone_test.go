package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
)

// scanCone is the test oracle for AppendCone: the per-vertex scan of
// Algorithm 3's predicate over every vertex, one ReachableLabels each.
func scanCone(l *core.Labeling, v dag.VertexID, up bool) []dag.VertexID {
	var out []dag.VertexID
	for u := 0; u < l.NumVertices(); u++ {
		if dag.VertexID(u) == v {
			continue
		}
		a, b := l.Label(dag.VertexID(u)), l.Label(v)
		if !up {
			a, b = b, a
		}
		if l.ReachableLabels(a, b) {
			out = append(out, dag.VertexID(u))
		}
	}
	return out
}

// checkCones compares AppendCone with the oracle, in both directions,
// from every source in sources.
func checkCones(t *testing.T, l *core.Labeling, sources []dag.VertexID) {
	t.Helper()
	prefix := []dag.VertexID{-7}
	for _, v := range sources {
		for _, up := range []bool{true, false} {
			want := scanCone(l, v, up)
			got := l.AppendCone(slices.Clone(prefix), v, up)
			if got[0] != prefix[0] || !slices.Equal(got[1:], want) {
				t.Fatalf("AppendCone(%d, up=%v) = %v, want %v after %v", v, up, got, want, prefix)
			}
		}
	}
}

func labelsOf(l *core.Labeling) []core.Label {
	out := make([]core.Label, l.NumVertices())
	for v := range out {
		out[v] = l.Label(dag.VertexID(v))
	}
	return out
}

func allVertices(n int) []dag.VertexID {
	vs := make([]dag.VertexID, n)
	for i := range vs {
		vs[i] = dag.VertexID(i)
	}
	return vs
}

// TestConeMatchesScan pins the context-grouped cone to the per-vertex
// scan on generated runs, for every skeleton scheme, both directions and
// every source vertex.
func TestConeMatchesScan(t *testing.T) {
	specs := []*spec.Spec{spec.PaperSpec(), spec.IntroSpec(), workload.MustStandIn("QBLAST", 1)}
	for i, s := range specs {
		r, _ := run.GenerateSized(s, rand.New(rand.NewSource(int64(40+i))), 500)
		for _, scheme := range label.All() {
			t.Run(fmt.Sprintf("spec%d/%s", i, scheme.Name()), func(t *testing.T) {
				l := mustLabel(t, r, scheme)
				checkCones(t, l, allVertices(l.NumVertices()))
			})
		}
	}
}

// TestConeUntrustedLabels binds hand-built label sets that no labeler
// produces — order positions above n⁺_T, one Q1 shared by labels with
// different (Q2, Q3), origins beyond the spec — and checks that
// grouping never changes an answer.
func TestConeUntrustedLabels(t *testing.T) {
	s := spec.PaperSpec()
	skel, err := label.TCM{}.Build(s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		np := rng.Intn(12)
		snap := &core.Snapshot{Labels: make([]core.Label, n), NumPositioned: np, NumSpec: s.NumVertices()}
		if trial%4 == 0 {
			// A header claiming fewer spec vertices than the origins use
			// (and a memo too small for them).
			snap.NumSpec = rng.Intn(s.NumVertices())
		}
		for i := range snap.Labels {
			snap.Labels[i] = core.Label{
				Q1:   uint32(rng.Intn(np + 4)),
				Q2:   uint32(rng.Intn(np + 2)),
				Q3:   uint32(rng.Intn(np + 2)),
				Orig: dag.VertexID(rng.Intn(s.NumVertices())),
			}
		}
		l, err := snap.Bind(skel)
		if err != nil {
			t.Fatal(err)
		}
		checkCones(t, l, allVertices(n))
	}
}

// FuzzConeOracle checks AppendCone against the per-vertex scan for any
// snapshot DecodeSnapshot accepts with the paper specification's size,
// bound to that specification's skeleton. Each input is checked twice:
// as decoded, and with its n⁺_T header halved, so labels above
// NumPositioned reach the cone.
func FuzzConeOracle(f *testing.F) {
	s := spec.PaperSpec()
	skel, err := label.BFS{}.Build(s.Graph)
	if err != nil {
		f.Fatal(err)
	}
	ng := s.NumVertices()
	seed := func(np int, labels ...core.Label) {
		var buf bytes.Buffer
		snap := &core.Snapshot{Labels: labels, NumPositioned: np, NumSpec: ng}
		if _, err := snap.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A real run's labels.
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(3)), 60)
	real, err := core.LabelRun(r, skel)
	if err != nil {
		f.Fatal(err)
	}
	seed(real.NumPositioned(), labelsOf(real)...)
	// Every Q1 = 0, one context shared by all.
	seed(3, core.Label{Orig: 1}, core.Label{Orig: 2}, core.Label{Orig: 5})
	// Equal Q1 with different (Q2, Q3).
	seed(4, core.Label{Q1: 2, Q2: 1, Q3: 3, Orig: 0}, core.Label{Q1: 2, Q2: 3, Q3: 1, Orig: 3},
		core.Label{Q1: 1, Q2: 2, Q3: 2, Orig: 4}, core.Label{Q1: 3, Q2: 4, Q3: 0, Orig: 7})
	// Q1 above NumPositioned once halved, and n⁺_T far above n.
	seed(8, core.Label{Q1: 7, Q2: 1, Q3: 6, Orig: 2}, core.Label{Q1: 8, Q2: 8, Q3: 0, Orig: 6},
		core.Label{Q1: 1, Q2: 5, Q3: 5, Orig: 0})
	seed(1<<20, core.Label{Q1: 1 << 19, Q2: 3, Q3: 9, Orig: 1}, core.Label{Q1: 1 << 20, Q2: 9, Q3: 3, Orig: 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := core.DecodeSnapshot(data)
		if err != nil || snap.NumSpec != ng {
			return
		}
		n := len(snap.Labels)
		sources := allVertices(n)
		if n > 64 {
			// Every vertex still appears in each checked cone's scan.
			sources = sources[:0]
			for i := 0; i < 64; i++ {
				sources = append(sources, dag.VertexID(i*n/64))
			}
		}
		for _, np := range []int{snap.NumPositioned, snap.NumPositioned / 2} {
			snap.NumPositioned = np
			l, err := snap.Bind(skel)
			if err != nil {
				t.Fatal(err)
			}
			checkCones(t, l, sources)
		}
	})
}

// TestConeFirstCallConcurrent races many goroutines into the first
// AppendCone call on fresh Labelings, so the lazily built context index
// is exercised under contention; run with -race to check the build is
// properly published.
func TestConeFirstCallConcurrent(t *testing.T) {
	s := workload.MustStandIn("QBLAST", 1)
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(8)), 800)
	base := mustLabel(t, r, label.TCM{})
	n := base.NumVertices()
	snap := &core.Snapshot{Labels: labelsOf(base), NumPositioned: base.NumPositioned(), NumSpec: s.NumVertices()}
	const workers = 8
	want := make([][]dag.VertexID, workers)
	for g := range want {
		want[g] = scanCone(base, dag.VertexID(g*n/workers), g%2 == 0)
	}
	for round := 0; round < 20; round++ {
		l, err := snap.Bind(base.Skeleton())
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		got := make([][]dag.VertexID, workers)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				got[g] = l.AppendCone(nil, dag.VertexID(g*n/workers), g%2 == 0)
			}()
		}
		close(start)
		wg.Wait()
		for g := range got {
			if !slices.Equal(got[g], want[g]) {
				t.Fatalf("round %d worker %d: concurrent first cone differs from the scan", round, g)
			}
		}
	}
}

// countingSkeleton counts the skeleton queries made through it.
type countingSkeleton struct {
	label.Labeling
	probes int
}

func (c *countingSkeleton) Reachable(u, v dag.VertexID) bool {
	c.probes++
	return c.Labeling.Reachable(u, v)
}

// TestConeProbesOncePerOrigin pins the memo: a cone costs at most one
// skeleton query per specification vertex, however many run vertices
// share an origin.
func TestConeProbesOncePerOrigin(t *testing.T) {
	s := workload.MustStandIn("QBLAST", 1)
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(6)), 2000)
	skel, err := label.BFS{}.Build(s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	counter := &countingSkeleton{Labeling: skel}
	l, err := core.LabelRun(r, counter)
	if err != nil {
		t.Fatal(err)
	}
	maxProbes := 0
	for v := 0; v < l.NumVertices(); v += 7 {
		for _, up := range []bool{true, false} {
			counter.probes = 0
			l.AppendCone(nil, dag.VertexID(v), up)
			if counter.probes > s.NumVertices() {
				t.Fatalf("cone of %d (up=%v) made %d skeleton queries; the spec has %d vertices",
					v, up, counter.probes, s.NumVertices())
			}
			maxProbes = max(maxProbes, counter.probes)
		}
	}
	if maxProbes == 0 {
		t.Fatal("no cone reached the skeleton")
	}
}
