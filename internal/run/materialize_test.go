package run_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// materializeGolden pins the runs and plans Materialize builds: the
// SHA-256 of each run's canonical encoding (xmlio.EncodeRun with workflow
// name "golden") and of its plan's canonical form, recorded from the
// map-based materializer this one replaced. A run is the Figure 3 run or
// GenerateSized(stand-in seed 1, rand seed 7, 600 vertices).
var materializeGolden = []struct{ name, run, plan string }{
	{"paper", "478c5c11122ea8947593b6c4d926c4343e1bb3cae966782db0880e8fdf871d93", "64895e3f53c4cf0726084148948da74d976c0cc0f5a1c9f3f6cf821048996f46"},
	{"EBI", "f8f4d45a9149adcb3ca067b36a705f689ba0532ce3819fc9299b012c776995e7", "156640b5cc64ef9b2672dcbbe3fd9c045fd813bc5135ae0540b03f0466ba8765"},
	{"PubMed", "9eb1684ff9ee0ea999e924566ae81c5ae76d7dfb3fe7ea46218c68bd0aa692ff", "ff4cb05dc91a2bc269fe58c665bb59e6281bf86f10feb2f516d0e541993937cb"},
	{"QBLAST", "4988000eb4d0cf300aa9d0b0d1cabc8629031932b7e77c8af8790a80765e0173", "0f9564bdcf902c46db33011fc8793583b7add67f7189ca8f2747f8a6f43bc5be"},
	{"BioAID", "4929523b5f86d7556bb6e3baa28898ce51b277c9c7a30dcc68f49c823d8a24c0", "f4fd306d8721bb0754678a77128737a2c5b15b0037a7e482b22f2ca533cc225c"},
	{"ProScan", "24889fb235f5dbf799c6260cc29d3a80d562ebdea5d1f2dcb8bd468ecc71168c", "146f6f4b100cae40b996e78b5d862ed5b105c032d9deab1084e78f17ad0ca3ee"},
	{"ProDisc", "0bbd39c63be2e62d9706a3bf8433fc10d295da37b2d746d77224d44f5fb3e22c", "71ae0ba9816366e1c1916cbd36d731f7c9b74e1a886962b14fe7cf2e3c8fe8e3"},
}

func TestMaterializeGolden(t *testing.T) {
	for _, g := range materializeGolden {
		var r *run.Run
		var p interface{ Canonical() string }
		if g.name == "paper" {
			r, p = run.Figure3Run(spec.PaperSpec())
		} else {
			r, p = run.GenerateSized(workload.MustStandIn(g.name, 1), rand.New(rand.NewSource(7)), 600)
		}
		var doc bytes.Buffer
		if err := xmlio.EncodeRun(&doc, r, nil, "golden"); err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(doc.Bytes()); hex.EncodeToString(got[:]) != g.run {
			t.Errorf("%s: run encodes to SHA-256 %x, want %s", g.name, got, g.run)
		}
		if got := sha256.Sum256([]byte(p.Canonical())); hex.EncodeToString(got[:]) != g.plan {
			t.Errorf("%s: plan's canonical form has SHA-256 %x, want %s", g.name, got, g.plan)
		}
	}
}

// Materialize's allocations do not grow with the run: the run, its
// edges and its plan are sized from the execution tree before anything
// is emitted.
func TestMaterializeAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins measure the uninstrumented build, as the store's and server's do")
	}
	sp := workload.MustStandIn("QBLAST", 1)
	allocs := func(size int) float64 {
		et := run.ExecForSize(sp, rand.New(rand.NewSource(6)), size)
		return testing.AllocsPerRun(5, func() {
			if _, _, err := run.Materialize(sp, et); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(200), allocs(4000); small != large {
		t.Fatalf("Materialize allocs grow with the run: %v at 200 vertices, %v at 4000", small, large)
	}
}

// bfsTable numbers the tree's copies level by level, the order an
// engine that starts every copy of one depth before the next would log;
// copies at one site keep their serial order.
func bfsTable(t *run.ExecTree) run.CopyTable {
	type entry struct {
		c      *run.ExecCopy
		h      int
		parent int32
	}
	tab := run.CopyTable{}
	queue := []entry{{t.Copies[0], 0, -1}}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		id := int32(len(tab.HNode))
		tab.HNode = append(tab.HNode, int32(e.h))
		tab.Parent = append(tab.Parent, e.parent)
		for _, site := range e.c.Sites {
			for _, cp := range site.Copies {
				queue = append(queue, entry{cp, site.HNode, id})
			}
		}
	}
	return tab
}

// A copy table names each copy's parent instead of nesting it, so any
// numbering that keeps each site's copies in serial order materializes
// the run and plan Materialize builds from the tree; a table whose
// copies do not nest, or that leaves a site without copies, is refused.
func TestMaterializeTable(t *testing.T) {
	sp := workload.MustStandIn("BioAID", 1)
	for seed := range int64(8) {
		et := run.RandomExecExpand(sp, rand.New(rand.NewSource(seed)), 1.6)
		r, p := run.MustMaterialize(sp, et)
		r2, p2, err := run.MaterializeTable(sp, bfsTable(et))
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := xmlio.EncodeRun(&a, r, nil, ""); err != nil {
			t.Fatal(err)
		}
		if err := xmlio.EncodeRun(&b, r2, nil, ""); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) || p.Canonical() != p2.Canonical() {
			t.Fatalf("seed %d: the level-order table materializes another run than the tree", seed)
		}
	}

	root := sp.Hier.Children[0][0]
	for name, tab := range map[string]run.CopyTable{
		"empty":          {},
		"root not 0":     {HNode: []int32{1}, Parent: []int32{-1}},
		"parent after":   {HNode: []int32{0, int32(root)}, Parent: []int32{-1, 1}},
		"wrong parent":   {HNode: []int32{0, int32(root), int32(root)}, Parent: []int32{-1, 0, 1}},
		"site unstarted": {HNode: []int32{0}, Parent: []int32{-1}},
	} {
		if _, _, err := run.MaterializeTable(sp, tab); err == nil {
			t.Errorf("%s: MaterializeTable accepted %+v", name, tab)
		}
	}
}
