package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

func TestSnapshotRoundTrip(t *testing.T) {
	s := spec.PaperSpec()
	rng := rand.New(rand.NewSource(1))
	r, _ := run.GenerateSized(s, rng, 800)
	skel, _ := label.TCM{}.Build(s.Graph)
	l, err := core.LabelRun(r, skel)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := l.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	snap, err := core.ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Labels) != r.NumVertices() {
		t.Fatalf("snapshot has %d labels, want %d", len(snap.Labels), r.NumVertices())
	}
	bound, err := snap.Bind(skel)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 5000; q++ {
		u := dag.VertexID(rng.Intn(r.NumVertices()))
		v := dag.VertexID(rng.Intn(r.NumVertices()))
		if bound.Reachable(u, v) != l.Reachable(u, v) {
			t.Fatalf("bound snapshot disagrees at (%d,%d)", u, v)
		}
	}
	// Compactness: varint encoding should beat 16 bytes/label comfortably.
	if perLabel := float64(buf.Cap()) / float64(r.NumVertices()); perLabel > 12 {
		t.Errorf("snapshot uses %.1f bytes/label; expected < 12", perLabel)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	s := spec.PaperSpec()
	r, _ := run.MustMaterialize(s, run.SingleExec(s))
	skel, _ := label.BFS{}.Build(s.Graph)
	l, err := core.LabelRun(r, skel)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] ^= 0xff
		if _, err := core.ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Error("corrupted magic accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := core.ReadSnapshot(bytes.NewReader(good[:len(good)/2])); err == nil {
			t.Error("truncated snapshot accepted")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := core.ReadSnapshot(bytes.NewReader(nil)); err == nil {
			t.Error("empty snapshot accepted")
		}
	})
	t.Run("nil skeleton", func(t *testing.T) {
		snap, err := core.ReadSnapshot(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snap.Bind(nil); err == nil {
			t.Error("nil skeleton accepted")
		}
	})
}

// Property: snapshots round-trip for arbitrary runs and all answers
// survive serialization.
func TestQuickSnapshotRoundTrip(t *testing.T) {
	s := spec.PaperSpec()
	skel, _ := label.TCM{}.Build(s.Graph)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		et := run.RandomExecSteps(s, rng, rng.Intn(50))
		r, _ := run.MustMaterialize(s, et)
		l, err := core.LabelRun(r, skel)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if _, err := l.WriteTo(&buf); err != nil {
			return false
		}
		snap, err := core.ReadSnapshot(&buf)
		if err != nil {
			return false
		}
		bound, err := snap.Bind(skel)
		if err != nil {
			return false
		}
		n := r.NumVertices()
		for q := 0; q < 200; q++ {
			u := dag.VertexID(rng.Intn(n))
			v := dag.VertexID(rng.Intn(n))
			if bound.Reachable(u, v) != l.Reachable(u, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// labeled16k builds the Fig-13-sized benchmark labeling: a QBLAST
// stand-in run of ~16000 vertices.
func labeledQBLAST(t testing.TB, size int) *core.Labeling {
	t.Helper()
	s, err := workload.StandIn("QBLAST", 1)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(int64(size))), size)
	skel, err := label.TCM{}.Build(s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.LabelRun(r, skel)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func encode(t testing.TB, l *core.Labeling) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := l.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// readFixture returns one file of the checked-in compatibility fixture
// in testdata: a PaperSpec run (run.GenerateSized with seed 21 and a
// 400-vertex target, 507 vertices) as paper.xml, and its TCM labels as
// paper.skl1 and paper.skl2, written by the last release that still had
// an SKL1 writer. No writer emits SKL1 any more, so this fixture is what
// pins the SKL1 reader.
func readFixture(t testing.TB, ext string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "paper."+ext))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestSnapshotCrossVersion pins the compatibility contract: the SKL1
// fixture decodes to the SKL2 fixture's labels and reports SKL1, and
// re-encoding either yields the SKL2 fixture byte for byte, as does
// labeling the fixture's run afresh.
func TestSnapshotCrossVersion(t *testing.T) {
	v1, v2 := readFixture(t, "skl1"), readFixture(t, "skl2")
	old, err := core.DecodeSnapshot(v1)
	if err != nil {
		t.Fatalf("SKL1 fixture: %v", err)
	}
	cur, err := core.DecodeSnapshot(v2)
	if err != nil {
		t.Fatalf("SKL2 fixture: %v", err)
	}
	if old.Version != core.SnapshotV1 || cur.Version != core.SnapshotV2 {
		t.Fatalf("decoded versions = %v, %v; want SKL1, SKL2", old.Version, cur.Version)
	}
	if !reflect.DeepEqual(old.Labels, cur.Labels) {
		t.Fatal("SKL1 fixture labels differ from SKL2 fixture labels")
	}
	if old.NumPositioned != cur.NumPositioned || old.NumSpec != cur.NumSpec {
		t.Fatalf("SKL1 header (%d,%d) != SKL2 header (%d,%d)",
			old.NumPositioned, old.NumSpec, cur.NumPositioned, cur.NumSpec)
	}
	for _, snap := range []*core.Snapshot{old, cur} {
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), v2) {
			t.Fatalf("%v fixture re-encodes differently from the SKL2 fixture", snap.Version)
		}
	}

	s := spec.PaperSpec()
	r, _, err := xmlio.DecodeRunBytes(readFixture(t, "xml"), s)
	if err != nil {
		t.Fatal(err)
	}
	skel, err := label.TCM{}.Build(s.Graph)
	if err != nil {
		t.Fatal(err)
	}
	l, err := core.LabelRun(r, skel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, l), v2) {
		t.Fatal("labeling the fixture run does not reproduce the SKL2 fixture")
	}
}

// TestSnapshotV2Smaller pins the codec's size win: on a Fig-13-sized
// run SKL2 must use at most 60% of SKL1's bytes. SKL1's size follows
// from its definition: the uvarint header and the 4n uvarint components.
func TestSnapshotV2Smaller(t *testing.T) {
	l := labeledQBLAST(t, 16000)
	v2 := encode(t, l)
	snap, err := core.DecodeSnapshot(v2)
	if err != nil {
		t.Fatal(err)
	}
	size := func(x uint64) int { return len(binary.AppendUvarint(nil, x)) }
	v1 := size(0x534b4c31) + size(uint64(len(snap.Labels))) + size(uint64(snap.NumPositioned)) + size(uint64(snap.NumSpec))
	for _, lab := range snap.Labels {
		v1 += size(uint64(lab.Q1)) + size(uint64(lab.Q2)) + size(uint64(lab.Q3)) + size(uint64(lab.Orig))
	}
	ratio := float64(len(v2)) / float64(v1)
	t.Logf("n=%d: SKL1=%d bytes, SKL2=%d bytes (%.0f%%)", l.NumVertices(), v1, len(v2), 100*ratio)
	if ratio > 0.60 {
		t.Errorf("SKL2 uses %.0f%% of SKL1's bytes; want <= 60%%", 100*ratio)
	}
}

// TestSnapshotHostileCount verifies that a header declaring an enormous
// label count fails fast instead of allocating tens of GiB before any
// label data is read, in both wire formats. A magic is compared whole,
// so one widened past 32 bits is rejected even when the rest is a
// valid empty snapshot.
func TestSnapshotHostileCount(t *testing.T) {
	header := func(magic, count uint64) []byte {
		var b []byte
		b = binary.AppendUvarint(b, magic)
		b = binary.AppendUvarint(b, count)
		b = binary.AppendUvarint(b, 100) // numPositioned
		b = binary.AppendUvarint(b, 10)  // numSpec
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"v1-max-count", header(0x534b4c31, 1<<32)},
		{"v2-max-count", header(0x534b4c32, 1<<32)},
		{"v1-implausible", header(0x534b4c31, 1<<40)},
		{"v2-implausible", header(0x534b4c32, 1<<40)},
		{"v1-widened-magic", header(0x1_534b4c31, 0)},
		{"v2-widened-magic", header(0x1_534b4c32, 0)},
		{"v2-huge-spec", func() []byte {
			var b []byte
			b = binary.AppendUvarint(b, 0x534b4c32)
			b = binary.AppendUvarint(b, 1)
			b = binary.AppendUvarint(b, 100)
			b = binary.AppendUvarint(b, 1<<40)
			return b
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := core.DecodeSnapshot(tc.data); err == nil {
				t.Error("hostile header accepted")
			}
			if _, err := core.ReadSnapshot(bytes.NewReader(tc.data)); err == nil {
				t.Error("hostile header accepted by ReadSnapshot")
			}
		})
	}
}

// TestSnapshotArbitraryValues round-trips hand-built snapshots hitting
// every column encoding: constant columns, tiny deltas, wild jumps that
// force fixed-width, and boundary values.
func TestSnapshotArbitraryValues(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Boundary values chosen to exercise every column width while
	// staying representable on 32-bit platforms (int, dag.VertexID).
	const np = 1<<31 - 1
	const ns = 1<<31 - 1
	cases := [][]core.Label{
		{},
		{{Q1: 0, Q2: 0, Q3: 0, Orig: 0}},
		{{Q1: np, Q2: np, Q3: np, Orig: ns - 1}},
	}
	// One label set per stress pattern, sized to cross block boundaries.
	patterned := make([]core.Label, 10000)
	for i := range patterned {
		switch {
		case i%3 == 0: // slowly climbing (delta-friendly)
			patterned[i] = core.Label{Q1: uint32(i), Q2: uint32(i / 2), Q3: uint32(2 * i), Orig: 5}
		case i%3 == 1: // random wild jumps (fixed-width)
			patterned[i] = core.Label{Q1: rng.Uint32() % np, Q2: rng.Uint32() % np, Q3: rng.Uint32() % np, Orig: dag.VertexID(rng.Intn(ns))}
		default: // constant block
			patterned[i] = core.Label{Q1: 7, Q2: 7, Q3: 7, Orig: 7}
		}
	}
	cases = append(cases, patterned)
	for ci, labels := range cases {
		snap := &core.Snapshot{Labels: labels, NumPositioned: np, NumSpec: ns}
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		got, err := core.DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if len(got.Labels) != len(labels) {
			t.Fatalf("case %d: %d labels, want %d", ci, len(got.Labels), len(labels))
		}
		for i := range labels {
			if got.Labels[i] != labels[i] {
				t.Fatalf("case %d: label %d = %+v, want %+v", ci, i, got.Labels[i], labels[i])
			}
		}
	}
}

// BenchmarkSnapshotDecode measures decoding at the Fig-13 run sizes
// (tracked in the BENCH_<n>.json lineage).
func BenchmarkSnapshotDecode(b *testing.B) {
	for _, size := range []int{4000, 16000} {
		l := labeledQBLAST(b, size)
		data := encode(b, l)
		b.Run(fmt.Sprintf("SKL2/n=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ReportMetric(float64(len(data))/float64(l.NumVertices()), "bytes/label")
			for i := 0; i < b.N; i++ {
				if _, err := core.DecodeSnapshot(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotEncode measures WriteTo.
func BenchmarkSnapshotEncode(b *testing.B) {
	l := labeledQBLAST(b, 16000)
	b.Run("SKL2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := l.WriteTo(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}
