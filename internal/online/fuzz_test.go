package online

import (
	"math/rand"
	"testing"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/spec"
	"repro/internal/workload"
)

// oracleSpecs are the specifications FuzzOnlineOracle grows runs of:
// the paper's, the introduction's, a QBLAST stand-in with a deeper
// hierarchy, and a one-loop chain on which inserting iterations at one
// place soon exhausts a key gap.
func oracleSpecs(tb testing.TB) ([]*spec.Spec, []label.Labeling) {
	b := spec.NewBuilder()
	b.Chain("s", "x", "t")
	b.Loop("s", "t", "x")
	specs := []*spec.Spec{spec.PaperSpec(), spec.IntroSpec(), workload.MustStandIn("QBLAST", 1), b.MustBuild()}
	skels := make([]label.Labeling, len(specs))
	for i, s := range specs {
		var err error
		if skels[i], err = (label.TCM{}).Build(s.Graph); err != nil {
			tb.Fatal(err)
		}
	}
	return specs, skels
}

// Three bytes make one operation of FuzzOnlineOracle's program: the
// first picks the call, the second the copy it acts on, the third its
// hierarchy node or module.
const (
	opStart = iota
	opAfter
	opExec
	opKinds
)

// renumberProgram starts one iteration of the loop chain's loop, then
// inserts n iterations right after it, each executing x: every insert
// lands in the same shrinking gap.
func renumberProgram(n int) []byte {
	p := []byte{opStart, 0, 1, opExec, 1, 1}
	for i := 0; i < n; i++ {
		p = append(p, opAfter, 1, 0, opExec, byte(2+i), 0x81)
	}
	return p
}

// FuzzOnlineOracle holds the slab labeler to the pointer labeler it
// replaced (oracle_test.go): the same program of StartCopy,
// StartLoopIterationAfter and AddExec calls must succeed or fail alike
// (with the same error text) on both, start copies of the same
// hierarchy nodes, and leave every vertex with the same CurrentLabel,
// sampled pairs with the same Reachable, and the same Renumbers.
func FuzzOnlineOracle(f *testing.F) {
	specs, skels := oracleSpecs(f)
	f.Add(uint8(0), []byte{opExec, 0, 0, opStart, 0, 1, opStart, 1, 2, opExec, 2, 0x81, opAfter, 2, 0, opExec, 3, 0x82})
	f.Add(uint8(1), []byte{opStart, 0, 1, opStart, 0, 1, opStart, 0, 2, opAfter, 1, 0, opExec, 2, 0x80, opExec, 5, 0})
	f.Add(uint8(2), []byte{opStart, 0, 1, opStart, 0, 2, opStart, 1, 3, opStart, 2, 4, opStart, 3, 5, opAfter, 4, 0, opExec, 4, 0x83})
	f.Add(uint8(3), renumberProgram(300))
	f.Add(uint8(3), []byte{opAfter, 0, 0, opStart, 0, 7, opExec, 0, 200})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		p := make([]byte, 3*(50+rng.Intn(400)))
		rng.Read(p)
		f.Add(uint8(i), p)
	}
	f.Fuzz(func(t *testing.T, which uint8, program []byte) {
		s, skel := specs[int(which)%len(specs)], skels[int(which)%len(specs)]
		l, ref := New(s, skel), newRef(s, skel)
		copies, refs := []*Copy{l.Root()}, []*refCopy{ref.Root()}
		for i := 0; i+2 < len(program); i += 3 {
			k := int(program[i+1]) % len(copies)
			arg := int(program[i+2])
			var c *Copy
			var rc *refCopy
			var err, refErr error
			switch program[i] % opKinds {
			case opStart:
				hnode := arg % (s.Hier.NumNodes() + 1)
				c, err = l.StartCopy(copies[k], hnode)
				rc, refErr = ref.StartCopy(refs[k], hnode)
			case opAfter:
				c, err = l.StartLoopIterationAfter(copies[k])
				rc, refErr = ref.StartLoopIterationAfter(refs[k])
			case opExec:
				// A set high bit picks a module of the copy's subgraph,
				// which AddExec accepts; otherwise any origin, one past
				// the last included.
				origin := dag.VertexID(arg % (s.NumVertices() + 1))
				if h := copies[k].HNode(); arg >= 0x80 && h != 0 {
					vs := s.SubgraphOf(h).Vertices
					origin = vs[arg%len(vs)]
				}
				var v, rv dag.VertexID
				v, err = l.AddExec(copies[k], origin)
				rv, refErr = ref.AddExec(refs[k], origin)
				if err == nil && refErr == nil && v != rv {
					t.Fatalf("op %d: AddExec gave vertex %d, reference %d", i/3, v, rv)
				}
			}
			if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
				t.Fatalf("op %d: error %v, reference %v", i/3, err, refErr)
			}
			if c != nil {
				if c.HNode() != rc.HNode() {
					t.Fatalf("op %d: copy of hierarchy node %d, reference %d", i/3, c.HNode(), rc.HNode())
				}
				copies, refs = append(copies, c), append(refs, rc)
			}
			if l.Renumbers() != ref.Renumbers() {
				t.Fatalf("op %d: %d renumbers, reference %d", i/3, l.Renumbers(), ref.Renumbers())
			}
		}
		n := l.NumVertices()
		if n != ref.NumVertices() {
			t.Fatalf("%d vertices, reference %d", n, ref.NumVertices())
		}
		for v := dag.VertexID(0); int(v) < n; v++ {
			if got, want := l.CurrentLabel(v), ref.CurrentLabel(v); got != want {
				t.Fatalf("CurrentLabel(%d) = %+v, reference %+v", v, got, want)
			}
		}
		pairs := rand.New(rand.NewSource(int64(len(program))))
		for q := 0; q < 256 && n > 0; q++ {
			u, v := dag.VertexID(pairs.Intn(n)), dag.VertexID(pairs.Intn(n))
			if l.Reachable(u, v) != ref.Reachable(u, v) {
				t.Fatalf("Reachable(%d, %d) = %v, reference %v", u, v, l.Reachable(u, v), ref.Reachable(u, v))
			}
		}
	})
}
