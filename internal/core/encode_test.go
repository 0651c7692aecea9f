package core_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
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
	if snap.NumVertices() != r.NumVertices() {
		t.Fatalf("snapshot has %d labels, want %d", snap.NumVertices(), r.NumVertices())
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
	if !slices.Equal(labelsOf(old), labelsOf(cur)) {
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
	v1 := size(0x534b4c31) + size(uint64(snap.NumVertices())) + size(uint64(snap.NumPositioned)) + size(uint64(snap.NumSpec))
	for _, lab := range labelsOf(snap) {
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
		{"v2-const-frames", constFrames(100)},
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

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// constFrames hand-builds an SKL2 blob of the given number of full
// blocks, every column a 3-byte const frame: 12 bytes declare 4,096
// labels, all in one context and of one origin.
func constFrames(blocks int) []byte {
	b := binary.AppendUvarint(nil, 0x534b4c32)
	for _, x := range []uint64{uint64(blocks) * 4096, 1, 1} {
		b = binary.AppendUvarint(b, x)
	}
	for range blocks {
		// Payload length, const tag, value: Q1 = Q2 = Q3 = 1, origin 0.
		b = append(b, 1, 0x00, 1, 1, 0x00, 1, 1, 0x00, 1, 1, 0x00, 0)
	}
	return b
}

// TestSnapshotConstFramesBounded: a blob of const frames declares 2,700
// times more labels than it has bytes. The decoder refuses it before
// sizing a column for it, so the allocations stay those of the error,
// however many blocks the blob declares.
func TestSnapshotConstFramesBounded(t *testing.T) {
	for _, blocks := range []int{1, 100, 1000} {
		data := constFrames(blocks)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := core.DecodeSnapshot(data)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d-byte blob of const frames accepted", len(data))
		}
		if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 1024 {
			t.Fatalf("rejecting a %d-byte blob of %d const blocks allocated %d bytes, want at most 1 KiB", len(data), blocks, bytes)
		}
		if raceEnabled {
			continue // the race detector adds allocations of its own
		}
		if allocs := testing.AllocsPerRun(10, func() { core.DecodeSnapshot(data) }); allocs > 4 {
			t.Fatalf("rejecting a %d-byte blob of %d const blocks made %v allocations, want at most 4", len(data), blocks, allocs)
		}
	}
	if n := len(constFrames(100)); n != 1210 {
		t.Fatalf("100 const blocks take %d bytes, want 1,210", n)
	}
}

// TestSnapshotRejectsOneContextBlock: a block of more than one label in
// one context and of one origin is refused from every source, however
// its columns are framed, so whatever a reader accepts re-encodes in at
// least a byte per label. A single label, or two labels that differ in
// either column, are fine.
func TestSnapshotRejectsOneContextBlock(t *testing.T) {
	same := []core.Label{{Q1: 1, Q2: 1, Q3: 1, Orig: 0}, {Q1: 1, Q2: 1, Q3: 1, Orig: 0}}
	if _, err := core.NewSnapshot(1, 2, same); err == nil {
		t.Error("NewSnapshot accepted two labels with one context and one origin")
	}
	if _, err := core.DecodeSnapshot(rawSKL1(1, 2, same...)); err == nil {
		t.Error("SKL1 reader accepted two labels with one context and one origin")
	}
	// The same two labels framed in SKL2 with fixed8 columns: 4 frames
	// of 2 bytes, enough bytes for the count.
	b := binary.AppendUvarint(nil, 0x534b4c32)
	b = append(b, 2, 1, 2)
	for _, v := range []byte{1, 1, 1, 0} {
		b = append(b, 2, 0x02, v, v)
	}
	if _, err := core.DecodeSnapshot(b); err == nil {
		t.Error("SKL2 reader accepted two fixed8-framed labels with one context and one origin")
	}
	for _, ok := range [][]core.Label{
		same[:1],
		{same[0], {Q1: 1, Q2: 1, Q3: 1, Orig: 1}},
		{same[0], {Q1: 0, Q2: 0, Q3: 0, Orig: 0}},
	} {
		if _, err := core.NewSnapshot(1, 2, ok); err != nil {
			t.Errorf("NewSnapshot(%v): %v", ok, err)
		}
	}
}

// trailingSKL1 is a one-label SKL1 blob with four garbage bytes after
// its label.
func trailingSKL1() []byte {
	return append(rawSKL1(1, 2, core.Label{Q1: 1, Q2: 1, Q3: 1}), 0xde, 0xad, 0xbe, 0xef)
}

// TestSnapshotRejectsTrailingBytes: both readers refuse input left over
// after the declared labels, with one error.
func TestSnapshotRejectsTrailingBytes(t *testing.T) {
	if _, err := core.DecodeSnapshot(trailingSKL1()[:len(trailingSKL1())-4]); err != nil {
		t.Fatalf("the one-label SKL1 blob without its garbage: %v", err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"skl1 one label", trailingSKL1()},
		{"paper.skl1", append(readFixture(t, "skl1"), 0xde, 0xad, 0xbe, 0xef)},
		{"paper.skl2", append(readFixture(t, "skl2"), 0xde, 0xad, 0xbe, 0xef)},
	} {
		_, err := core.DecodeSnapshot(tc.data)
		if err == nil || err.Error() != "core: 4 trailing bytes after snapshot" {
			t.Errorf("%s with 4 bytes appended: err = %v, want 4 trailing bytes", tc.name, err)
		}
	}
}

// TestSnapshotSpendsAByteALabel checks what the SKL2 reader's bound on
// the label count rests on, over every run shape the project labels:
// the paper fixture, and runs of the paper's specifications and of
// every Table-1 stand-in from a single vertex up. No two vertices share
// a context and an origin, so every snapshot's column frames take at
// least one byte per label.
func TestSnapshotSpendsAByteALabel(t *testing.T) {
	check := func(name string, data []byte) {
		t.Helper()
		snap, err := core.DecodeSnapshot(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := make(map[[2]uint32]bool, snap.NumVertices())
		for _, lab := range labelsOf(snap) {
			k := [2]uint32{lab.Q1, uint32(lab.Orig)}
			if seen[k] {
				t.Fatalf("%s: two vertices in context %d of origin %d", name, lab.Q1, lab.Orig)
			}
			seen[k] = true
		}
		hdr := 0
		for _, x := range []uint64{0x534b4c32, uint64(snap.NumVertices()), uint64(snap.NumPositioned), uint64(snap.NumSpec)} {
			hdr += len(binary.AppendUvarint(nil, x))
		}
		if frames := len(data) - hdr; frames < snap.NumVertices() {
			t.Fatalf("%s: %d labels in %d bytes of column frames", name, snap.NumVertices(), frames)
		}
	}
	check("paper fixture", readFixture(t, "skl2"))
	specs := map[string]*spec.Spec{"paper": spec.PaperSpec(), "intro": spec.IntroSpec()}
	for _, w := range workload.RealWorkflows() {
		specs[w.Name] = workload.MustStandIn(w.Name, 1)
	}
	for name, s := range specs {
		for _, size := range []int{1, 20, 300, 5000} {
			r, _ := run.GenerateSized(s, rand.New(rand.NewSource(int64(size))), size)
			check(fmt.Sprintf("%s run of %d vertices", name, r.NumVertices()), encode(t, mustLabel(t, r, label.TCM{})))
		}
	}
}

// TestSnapshotArbitraryValues round-trips hand-built snapshots across
// block boundaries, with columns in every encoding: a climbing block
// (delta), a wild one (fixed 16- and 32-bit), a constant one (const, and
// fixed 8-bit origins), and the largest origin. Column values no
// factored snapshot can hold (positions beyond the label count) are
// TestColumnArbitraryValues' job.
func TestSnapshotArbitraryValues(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const ns = 1<<31 - 1
	type tc struct {
		np     int
		labels []core.Label
	}
	cases := []tc{
		{0, nil},
		{0, []core.Label{{Q1: 0, Q2: 0, Q3: 0, Orig: 0}}},
		{1, []core.Label{{Q1: 1, Q2: 1, Q3: 1, Orig: ns - 1}}},
	}
	// Context q's row is (q, n⁺_T−q).
	const n = 10000
	patterned := make([]core.Label, n)
	for i := range patterned {
		var q uint32
		var o dag.VertexID
		switch i / 4096 {
		case 0: // climbing
			q, o = uint32(i/2+1), 5
		case 1: // wild jumps
			q, o = uint32(rng.Intn(n+1)), dag.VertexID(rng.Intn(ns))
		default: // one context
			q, o = 7, dag.VertexID(i%256)
		}
		patterned[i] = core.Label{Q1: q, Q2: q, Q3: n - q, Orig: o}
	}
	cases = append(cases, tc{n, patterned})
	for ci, c := range cases {
		snap, err := core.NewSnapshot(c.np, ns, c.labels)
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		var buf bytes.Buffer
		if _, err := snap.WriteTo(&buf); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		got, err := core.DecodeSnapshot(buf.Bytes())
		if err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if got.NumPositioned != c.np || got.NumSpec != ns || !slices.Equal(labelsOf(got), c.labels) {
			t.Fatalf("case %d: labels changed in the round trip", ci)
		}
	}
}

// TestLabelingHeapPerVertex pins what a stored run's labels keep
// resident: decoded, bound and asked for one cone, a 5,159-vertex
// QBLAST stand-in run holds its context and origin columns, one row
// per context and its span index, at most 12 B/vertex.
func TestLabelingHeapPerVertex(t *testing.T) {
	r, _ := run.GenerateSized(workload.MustStandIn("QBLAST", 1), rand.New(rand.NewSource(4)), 5000)
	l := mustLabel(t, r, label.TCM{})
	perVertex := residentPerVertex(t, l)
	t.Logf("%.1f B/vertex resident over %d vertices", perVertex, l.NumVertices())
	if perVertex > 12 {
		t.Fatalf("a bound snapshot keeps %.1f B/vertex resident on a %d-vertex run, want at most 12", perVertex, l.NumVertices())
	}
}

// TestConeIndexHeapPerVertex pins the span index's share of the
// resident labels at 4 B/vertex, on TestLabelingHeapPerVertex's run in
// vertex order and with every vertex ID permuted (so every context
// splits into many spans): beyond the label columns (8 B/vertex and
// 8 B per context), a bound snapshot keeps at most 4.5 B/vertex, the
// half byte for allocation size classes.
func TestConeIndexHeapPerVertex(t *testing.T) {
	s := workload.MustStandIn("QBLAST", 1)
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(4)), 5000)
	l := mustLabel(t, r, label.TCM{})
	n := l.NumVertices()
	columns := 8 + 8*float64(l.NumPositioned()+1)/float64(n)
	for _, tc := range []struct {
		name string
		l    *core.Labeling
	}{{"ordered", l}, {"interleaved", interleaved(t, l, s.NumVertices(), 1)}} {
		extra := residentPerVertex(t, tc.l) - columns
		t.Logf("%s: %.2f B/vertex beyond the label columns over %d vertices", tc.name, extra, n)
		if extra > 4.5 {
			t.Fatalf("%s: a bound snapshot keeps %.2f B/vertex beyond its label columns, want at most 4.5", tc.name, extra)
		}
	}
}

// residentPerVertex returns the heap, per vertex, that l's snapshot
// keeps once decoded, bound and asked for one cone, over 20 copies.
func residentPerVertex(t *testing.T, l *core.Labeling) float64 {
	t.Helper()
	data := encode(t, l)
	held := make([]*core.Labeling, 20)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range held {
		snap, err := core.DecodeSnapshot(data)
		if err != nil {
			t.Fatal(err)
		}
		if held[i], err = snap.Bind(l.Skeleton()); err != nil {
			t.Fatal(err)
		}
		held[i].AppendCone(nil, dag.VertexID(i), true)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(held)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(len(held)*l.NumVertices())
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
