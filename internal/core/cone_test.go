package core_test

import (
	"bytes"
	"encoding/binary"
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

// labelsOf returns every label of a snapshot or labeling, in vertex
// order.
func labelsOf(l interface {
	NumVertices() int
	Label(dag.VertexID) core.Label
}) []core.Label {
	out := make([]core.Label, l.NumVertices())
	for v := range out {
		out[v] = l.Label(dag.VertexID(v))
	}
	return out
}

// rawSKL1 writes labels in the row-major SKL1 format without any check,
// so tests can hand the decoder label sets no labeler writes.
func rawSKL1(np, ns int, labels ...core.Label) []byte {
	b := binary.AppendUvarint(nil, 0x534b4c31)
	for _, x := range []uint64{uint64(len(labels)), uint64(np), uint64(ns)} {
		b = binary.AppendUvarint(b, x)
	}
	for _, lab := range labels {
		for _, x := range []uint64{uint64(lab.Q1), uint64(lab.Q2), uint64(lab.Q3), uint64(lab.Orig)} {
			b = binary.AppendUvarint(b, x)
		}
	}
	return b
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

// TestConeUntrustedLabels is the accept-or-reject oracle for label sets
// no labeler may have written. Positions and origins stay in range, so
// building the snapshot (NewSnapshot, or decoding the same labels as
// SKL1) must fail exactly when n⁺_T > n or some Q1 comes with two
// different (Q2, Q3); otherwise it succeeds, and every cone equals the
// per-vertex scan.
func TestConeUntrustedLabels(t *testing.T) {
	s := spec.PaperSpec()
	skel, err := label.TCM{}.Build(s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	accepted := 0
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(40)
		np := rng.Intn(n + 3)
		// A row per context, which each label takes or (rarely) not.
		rows := make([][2]uint32, np+1)
		for q := range rows {
			rows[q] = [2]uint32{uint32(rng.Intn(np + 1)), uint32(rng.Intn(np + 1))}
		}
		ns := s.NumVertices()
		if trial%4 == 0 {
			// A header declaring more spec vertices than the cone's
			// memo covers, so the cone probes the skeleton directly.
			ns = 1<<16 + 1
		}
		labels := make([]core.Label, n)
		seen := map[uint32][2]uint32{}
		wantErr := np > n
		for i := range labels {
			q1 := uint32(rng.Intn(np + 1))
			row := rows[q1]
			if rng.Intn(60) == 0 {
				row = [2]uint32{uint32(rng.Intn(np + 1)), uint32(rng.Intn(np + 1))}
			}
			if prev, ok := seen[q1]; ok && prev != row {
				wantErr = true
			}
			seen[q1] = row
			labels[i] = core.Label{Q1: q1, Q2: row[0], Q3: row[1], Orig: dag.VertexID(rng.Intn(s.NumVertices()))}
		}
		snap, err := core.NewSnapshot(np, ns, labels)
		_, decodeErr := core.DecodeSnapshot(rawSKL1(np, ns, labels...))
		if (err != nil) != wantErr || (decodeErr != nil) != wantErr {
			t.Fatalf("trial %d (n=%d, n+T=%d): NewSnapshot error %v, decode error %v; want an error: %v",
				trial, n, np, err, decodeErr, wantErr)
		}
		if wantErr {
			continue
		}
		accepted++
		if got := labelsOf(snap); !slices.Equal(got, labels) {
			t.Fatalf("trial %d: snapshot labels %v, want %v", trial, got, labels)
		}
		l, err := snap.Bind(skel)
		if err != nil {
			t.Fatal(err)
		}
		checkCones(t, l, allVertices(n))
	}
	if accepted < 80 || accepted > 400-80 {
		t.Fatalf("%d of 400 label sets accepted; the oracle needs both outcomes", accepted)
	}
}

// FuzzConeOracle checks AppendCone against the per-vertex scan for any
// snapshot DecodeSnapshot accepts with the paper specification's size,
// bound to that specification's skeleton.
func FuzzConeOracle(f *testing.F) {
	s := spec.PaperSpec()
	skel, err := label.BFS{}.Build(s.Graph)
	if err != nil {
		f.Fatal(err)
	}
	ng := s.NumVertices()
	// A real run's labels.
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(3)), 60)
	real, err := core.LabelRun(r, skel)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := real.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	// Every Q1 = 0, one context shared by all, the others unused.
	f.Add(rawSKL1(3, ng, core.Label{Orig: 1}, core.Label{Orig: 2}, core.Label{Orig: 5}))
	// Equal Q1 with different (Q2, Q3): rejected.
	f.Add(rawSKL1(4, ng, core.Label{Q1: 2, Q2: 1, Q3: 3, Orig: 0}, core.Label{Q1: 2, Q2: 3, Q3: 1, Orig: 3},
		core.Label{Q1: 1, Q2: 2, Q3: 2, Orig: 4}, core.Label{Q1: 3, Q2: 4, Q3: 0, Orig: 7}))
	// One vertex per context, in an order no plan gives.
	f.Add(rawSKL1(3, ng, core.Label{Q1: 3, Q2: 1, Q3: 2, Orig: 2}, core.Label{Q1: 1, Q2: 3, Q3: 3, Orig: 6},
		core.Label{Q1: 2, Q2: 2, Q3: 1, Orig: 0}))
	// n⁺_T far above n: rejected.
	f.Add(rawSKL1(1<<20, ng, core.Label{Q1: 1 << 19, Q2: 3, Q3: 9, Orig: 1}, core.Label{Q1: 1 << 20, Q2: 9, Q3: 3, Orig: 5}))
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := core.DecodeSnapshot(data)
		if err != nil || snap.NumSpec != ng {
			return
		}
		n := snap.NumVertices()
		sources := allVertices(n)
		if n > 64 {
			// Every vertex still appears in each checked cone's scan.
			sources = sources[:0]
			for i := 0; i < 64; i++ {
				sources = append(sources, dag.VertexID(i*n/64))
			}
		}
		l, err := snap.Bind(skel)
		if err != nil {
			t.Fatal(err)
		}
		checkCones(t, l, sources)
	})
}

// TestConeConcurrent runs many cones at once on one Labeling bound from
// a decoded snapshot, each against the scan; run with -race to check
// that AppendCone only reads the labeling and shares no scratch.
func TestConeConcurrent(t *testing.T) {
	s := workload.MustStandIn("QBLAST", 1)
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(8)), 800)
	base := mustLabel(t, r, label.TCM{})
	n := base.NumVertices()
	var buf bytes.Buffer
	if _, err := base.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	l, err := snap.Bind(base.Skeleton())
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	want := make([][]dag.VertexID, workers)
	for g := range want {
		want[g] = scanCone(base, dag.VertexID(g*n/workers), g%2 == 0)
	}
	for round := 0; round < 20; round++ {
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
				t.Fatalf("round %d worker %d: concurrent cone differs from the scan", round, g)
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

// BenchmarkAppendCone measures lineage cones on 5,000-vertex stand-in
// runs, both directions, cycling through 256 source vertices.
func BenchmarkAppendCone(b *testing.B) {
	for _, name := range []string{"QBLAST", "EBI", "ProDisc"} {
		s := workload.MustStandIn(name, 1)
		r, _ := run.GenerateSized(s, rand.New(rand.NewSource(1)), 5000)
		l := mustLabel(b, r, label.TCM{})
		n := l.NumVertices()
		for _, up := range []bool{true, false} {
			b.Run(fmt.Sprintf("%s/up=%v", name, up), func(b *testing.B) {
				b.ReportAllocs()
				var dst []dag.VertexID
				for i := 0; b.Loop(); i++ {
					dst = l.AppendCone(dst[:0], dag.VertexID(i%256*n/256), up)
				}
			})
		}
	}
}
