package store_test

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// storedBlobs returns the document and label snapshot PutRun writes for
// r, read back from a scratch store.
func storedBlobs(t *testing.T, r *run.Run) (doc, labels []byte) {
	t.Helper()
	st, err := store.NewMem(r.Spec, "paper")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutRun("x", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	read := func(open func(string) (io.ReadCloser, error)) []byte {
		rc, err := open("x")
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return read(st.Backend().ReadRun), read(st.Backend().ReadLabels)
}

// sameSizeRuns returns two runs of the paper specification with the
// same vertex count but different origin maps — the pair a torn write
// can mix up without any count check noticing.
func sameSizeRuns(t *testing.T) (*run.Run, *run.Run) {
	t.Helper()
	sp := spec.PaperSpec()
	bySize := map[int]*run.Run{}
	for seed := int64(1); seed < 500; seed++ {
		r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(seed)), 60)
		if prev, ok := bySize[r.NumVertices()]; ok && !slices.Equal(prev.Origin, r.Origin) {
			return prev, r
		}
		bySize[r.NumVertices()] = r
	}
	t.Fatal("no two same-size runs with different origins")
	return nil, nil
}

// A snapshot labeling a different specification than the store's is
// refused at load: names built from its origin column would index the
// specification out of range.
func TestOpenRunRejectsSnapshotForOtherSpec(t *testing.T) {
	sp := spec.PaperSpec()
	st, err := store.NewMem(sp, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(3)), 80)
	doc, labels := storedBlobs(t, r)
	snap, err := core.DecodeSnapshot(labels)
	if err != nil {
		t.Fatal(err)
	}
	labs := make([]core.Label, snap.NumVertices())
	for v := range labs {
		labs[v] = snap.Label(dag.VertexID(v))
	}
	labs[len(labs)-1].Orig = dag.VertexID(sp.NumVertices() + 2)
	odd, err := core.NewSnapshot(snap.NumPositioned, sp.NumVertices()+4, labs)
	if err != nil {
		t.Fatal(err)
	}
	var crafted bytes.Buffer
	if _, err := odd.WriteTo(&crafted); err != nil {
		t.Fatal(err)
	}
	if err := st.Backend().WriteRun("odd", doc, crafted.Bytes()); err != nil {
		t.Fatal(err)
	}
	_, err = st.OpenRun("odd", label.TCM{})
	if err == nil || !strings.Contains(err.Error(), "specification") {
		t.Fatalf("OpenRun of a snapshot for another spec = %v, want a spec mismatch error", err)
	}
	if store.IsTransient(err) {
		t.Fatalf("spec mismatch classified transient: %v", err)
	}
}

// Labels answer without the document; the first Document call compares
// the document's origin column with the labels', and reports a pair torn
// between two same-size runs instead of handing back the wrong graph.
func TestDocumentChecksTornPair(t *testing.T) {
	a, b := sameSizeRuns(t)
	docA, _ := storedBlobs(t, a)
	docB, labelsB := storedBlobs(t, b)
	st, err := store.NewMem(a.Spec, "paper")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Backend().WriteRun("torn", docA, labelsB); err != nil {
		t.Fatal(err)
	}
	sess, err := st.OpenRun("torn", label.TCM{})
	if err != nil {
		t.Fatalf("OpenRun of a torn pair = %v; labels alone must load", err)
	}
	searcher := dag.NewSearcher(b.Graph)
	for u := 0; u < b.NumVertices(); u += 7 {
		for v := 0; v < b.NumVertices(); v += 5 {
			if sess.Labels.Reachable(dag.VertexID(u), dag.VertexID(v)) != searcher.ReachableBFS(dag.VertexID(u), dag.VertexID(v)) {
				t.Fatalf("labels of the torn pair disagree with their own run at (%d,%d)", u, v)
			}
		}
	}
	if _, _, err := sess.Document(); err == nil || !strings.Contains(err.Error(), "origin") {
		t.Fatalf("Document of a torn pair = %v, want an origin mismatch", err)
	}
	if dv, err := sess.DataView(); err == nil || dv != nil {
		t.Fatalf("DataView of a torn pair = %v, %v; want the same error", dv, err)
	}

	// A pair torn between runs of different sizes fails the count check.
	big, _ := run.GenerateSized(a.Spec, rand.New(rand.NewSource(99)), 200)
	_, labelsBig := storedBlobs(t, big)
	if err := st.Backend().WriteRun("short", docB, labelsBig); err != nil {
		t.Fatal(err)
	}
	sess, err = st.OpenRun("short", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.Document(); err == nil || !strings.Contains(err.Error(), "snapshot covers") {
		t.Fatalf("Document of a count-torn pair = %v", err)
	}
}

// Concurrent first uses of a freshly opened session's document all see
// one decode.
func TestDocumentDecodedOnce(t *testing.T) {
	sp := spec.PaperSpec()
	st, err := store.NewMem(sp, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(5)), 300)
	if err := st.PutRun("r", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	sess, err := st.OpenRun("r", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	const readers = 16
	got := make([]*run.Run, readers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _, _ = sess.Document()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g == nil || g != got[0] {
			t.Fatalf("reader %d saw run %p, reader 0 saw %p", i, g, got[0])
		}
	}
	if got[0].NumVertices() != r.NumVertices() {
		t.Fatalf("decoded run has %d vertices, want %d", got[0].NumVertices(), r.NumVertices())
	}
}
