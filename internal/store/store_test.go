package store_test

import (
	"errors"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/xmlio"
)

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := spec.PaperSpec()
	st, err := store.Create(dir, s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var originals []*run.Run
	for i, target := range []int{50, 200, 800} {
		r, _ := run.GenerateSized(s, rng, target)
		ann := provdata.RandomItems(r, rng, 1.3, 0.4)
		name := []string{"small", "medium", "large"}[i]
		if err := st.PutRun(name, r, ann, label.TCM{}); err != nil {
			t.Fatalf("PutRun(%s): %v", name, err)
		}
		originals = append(originals, r)
	}
	// Reopen from disk.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.SpecName() != "paper" || st2.Spec().NumVertices() != s.NumVertices() {
		t.Fatal("reopened spec mismatch")
	}
	names, err := st2.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "large" || names[1] != "medium" || names[2] != "small" {
		t.Fatalf("Runs() = %v", names)
	}
	// Query from stored labels; verify against direct search on the
	// stored graph.
	for i, name := range []string{"small", "medium", "large"} {
		sess, err := st2.OpenRun(name, label.TCM{})
		if err != nil {
			t.Fatalf("OpenRun(%s): %v", name, err)
		}
		stored := document(t, sess)
		if stored.NumVertices() != originals[i].NumVertices() {
			t.Fatalf("%s: stored run size changed", name)
		}
		if _, ann, _ := sess.Document(); ann == nil {
			t.Fatalf("%s: data items lost", name)
		}
		searcher := dag.NewSearcher(stored.Graph)
		n := stored.NumVertices()
		for q := 0; q < 1000; q++ {
			u := dag.VertexID(rng.Intn(n))
			v := dag.VertexID(rng.Intn(n))
			if sess.Labels.Reachable(u, v) != searcher.ReachableBFS(u, v) {
				t.Fatalf("%s: stored labels wrong at (%d,%d)", name, u, v)
			}
		}
	}
}

func TestStoreDifferentQueryScheme(t *testing.T) {
	// Labels stored under TCM must be queryable with any other skeleton
	// scheme: the snapshot stores only positions + origin references.
	dir := t.TempDir()
	s := spec.PaperSpec()
	st, err := store.Create(dir, s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	r, _ := run.GenerateSized(s, rng, 300)
	if err := st.PutRun("r", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	sess, err := st.OpenRun("r", label.BFS{})
	if err != nil {
		t.Fatal(err)
	}
	stored := document(t, sess)
	searcher := dag.NewSearcher(stored.Graph)
	for q := 0; q < 1000; q++ {
		u := dag.VertexID(rng.Intn(stored.NumVertices()))
		v := dag.VertexID(rng.Intn(stored.NumVertices()))
		if sess.Labels.Reachable(u, v) != searcher.ReachableBFS(u, v) {
			t.Fatal("cross-scheme query wrong")
		}
	}
	if _, ann, err := sess.Document(); err != nil || ann != nil {
		t.Errorf("run stored without data: Document data = %v, %v; want nil, nil", ann, err)
	}
}

// document is Session.Document for tests: the decoded run, or a fatal
// error.
func document(t testing.TB, sess *store.Session) *run.Run {
	t.Helper()
	r, _, err := sess.Document()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestStoreErrors(t *testing.T) {
	dir := t.TempDir()
	s := spec.PaperSpec()
	st, err := store.Create(dir, s, "p")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.MustMaterialize(s, run.SingleExec(s))
	for _, bad := range []string{"", "a/b", "..", `a\b`} {
		if err := st.PutRun(bad, r, nil, label.TCM{}); err == nil {
			t.Errorf("PutRun accepted name %q", bad)
		}
	}
	if _, err := st.OpenRun("missing", label.TCM{}); err == nil {
		t.Error("OpenRun accepted missing run")
	}
	if _, err := store.Open(t.TempDir()); err == nil {
		t.Error("Open accepted empty directory")
	}
	// Invalid run (origin corrupted) must be rejected at Put time.
	badRun := &run.Run{Spec: s, Graph: r.Graph, Origin: append([]dag.VertexID(nil), r.Origin...)}
	badRun.Origin[0] = 99
	if err := st.PutRun("bad", badRun, nil, label.TCM{}); err == nil {
		t.Error("PutRun accepted invalid run")
	}
}

// TestStoreCrossCodecVersions verifies a store written before the SKL2
// codec still serves: a run whose label snapshot is stored in the
// legacy SKL1 format loads byte-identically (same labels, same query
// answers) next to an SKL2 run, and sessions report which codec backs
// them.
func TestStoreCrossCodecVersions(t *testing.T) {
	s := spec.PaperSpec()
	st, err := store.NewMem(s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	// "old" is a pre-SKL2 store's run: core's compatibility fixture,
	// a run document and its SKL1 labels, written straight through the
	// backend. "new" is the same run put through PutRun (SKL2).
	fixture := func(ext string) []byte {
		data, err := os.ReadFile(filepath.Join("..", "core", "testdata", "paper."+ext))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	doc, v1 := fixture("xml"), fixture("skl1")
	if err := st.Backend().WriteRun("old", doc, v1); err != nil {
		t.Fatal(err)
	}
	r, _, err := xmlio.DecodeRunBytes(doc, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutRun("new", r, nil, label.TCM{}); err != nil {
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

	oldSess, err := st.OpenRun("old", label.TCM{})
	if err != nil {
		t.Fatalf("OpenRun over SKL1 snapshot: %v", err)
	}
	newSess, err := st.OpenRun("new", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	if oldSess.SnapshotVersion != core.SnapshotV1 || newSess.SnapshotVersion != core.SnapshotV2 {
		t.Fatalf("snapshot versions = %v, %v; want SKL1, SKL2", oldSess.SnapshotVersion, newSess.SnapshotVersion)
	}
	if oldSess.SnapshotBytes != len(v1) || newSess.SnapshotBytes <= 0 {
		t.Fatalf("snapshot bytes = %d, %d", oldSess.SnapshotBytes, newSess.SnapshotBytes)
	}
	rng := rand.New(rand.NewSource(21))
	n := r.NumVertices()
	for q := 0; q < 2000; q++ {
		u := dag.VertexID(rng.Intn(n))
		v := dag.VertexID(rng.Intn(n))
		a, b := oldSess.Labels.Reachable(u, v), newSess.Labels.Reachable(u, v)
		if a != b || a != l.Reachable(u, v) {
			t.Fatalf("codec versions disagree at (%d,%d)", u, v)
		}
		if oldSess.Labels.Label(u) != newSess.Labels.Label(u) {
			t.Fatalf("stored label %d differs across codecs", u)
		}
	}
	// store.Copy moves both runs blob-for-blob: the SKL1 run stays SKL1.
	dst := store.NewMemBackend()
	if err := store.Copy(dst, st.Backend()); err != nil {
		t.Fatal(err)
	}
	st2, err := store.OpenBackend(dst)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := st2.OpenRun("old", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	if copied.SnapshotVersion != core.SnapshotV1 || copied.SnapshotBytes != len(v1) {
		t.Fatalf("copy changed the stored codec: %v, %d bytes", copied.SnapshotVersion, copied.SnapshotBytes)
	}
}

// A run put from memory is stored in its canonical encoding, which
// omits a data item with an empty name, so the stored run would lose an
// item the returned session has. Both in-memory write methods refuse
// such an annotation as an *InvalidRunError and write nothing.
func TestPutRunRefusesEmptyItemName(t *testing.T) {
	s := spec.PaperSpec()
	st, err := store.NewMem(s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	r, _ := run.GenerateSized(s, rng, 60)
	ann := provdata.RandomItems(r, rng, 1.5, 0.3)
	if len(ann.Items) < 61 {
		t.Fatalf("only %d items generated, want 61", len(ann.Items))
	}
	ann.Items = ann.Items[:61]
	if err := st.PutRun("named", r, ann, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	sess, err := st.OpenRun("named", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	if _, got, err := sess.Document(); err != nil || len(got.Items) != 61 {
		t.Fatalf("stored run reads back with %v items, err %v; want 61", got, err)
	}

	ann.Items[17].Name = ""
	var invalid *store.InvalidRunError
	if _, err := st.PutRunSession("unnamed", r, nil, ann, label.TCM{}); !errors.As(err, &invalid) {
		t.Fatalf("PutRunSession with an empty item name: err = %v, want *InvalidRunError", err)
	}
	if err := st.PutRun("unnamed", r, ann, label.TCM{}); !errors.As(err, &invalid) {
		t.Fatalf("PutRun with an empty item name: err = %v, want *InvalidRunError", err)
	}
	if _, err := st.Backend().ReadRun("unnamed"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a refused run left a document behind: err = %v", err)
	}
	if _, err := st.Backend().ReadLabels("unnamed"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a refused run left labels behind: err = %v", err)
	}
}
