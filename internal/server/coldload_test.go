package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
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
	"repro/internal/store/faultinject"
)

// A cold load reads the run document but decodes only the label
// snapshot; these tests pin what that may and may not change.

// runBlobs returns the document and label snapshot PutRun writes for r.
func runBlobs(t *testing.T, r *run.Run) (doc, labels []byte) {
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

// serverOver builds a read-only server over a mem store holding one run
// "r" made of the given blobs.
func serverOver(t *testing.T, doc, labels []byte) *Server {
	t.Helper()
	st, err := store.NewMem(spec.PaperSpec(), "paper")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Backend().WriteRun("r", doc, labels); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// A snapshot made for a bigger specification is refused at load: the
// names built from its origin column would index the store's spec out
// of range. The query answers 500; nothing panics.
func TestSnapshotForOtherSpecIs500(t *testing.T) {
	sp := spec.PaperSpec()
	r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(3)), 80)
	doc, labels := runBlobs(t, r)
	snap, err := core.DecodeSnapshot(labels)
	if err != nil {
		t.Fatal(err)
	}
	labs := make([]core.Label, snap.NumVertices())
	for v := range labs {
		labs[v] = snap.Label(dag.VertexID(v))
	}
	labs[0].Orig = dag.VertexID(sp.NumVertices() + 3)
	odd, err := core.NewSnapshot(snap.NumPositioned, sp.NumVertices()+4, labs)
	if err != nil {
		t.Fatal(err)
	}
	var crafted bytes.Buffer
	if _, err := odd.WriteTo(&crafted); err != nil {
		t.Fatal(err)
	}
	s := serverOver(t, doc, crafted.Bytes())
	rec := do(t, s, "GET", "/reachable?run=r&from=0&to=1", "", nil)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "specification") {
		t.Fatalf("/reachable over a snapshot for another spec: %d %s", rec.Code, rec.Body.String())
	}
}

// A run whose document is not XML but whose labels are valid answers
// every label query exactly like a healthy twin: those queries never
// decode the document. Path queries and run status need it, and report
// the decode error.
func TestLabelQueriesNeverDecodeDocument(t *testing.T) {
	r, _ := run.GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(4)), 120)
	doc, labels := runBlobs(t, r)
	healthy := serverOver(t, doc, labels)
	broken := serverOver(t, []byte("<run>this is not a run document"), labels)
	nm := run.NewNamer(r)
	n := r.NumVertices()
	batch := fmt.Sprintf(`{"run":"r","pairs":[[0,%d],["%s","%s"],[%d,"%s"]]}`,
		n-1, nm.Name(3), nm.Name(dag.VertexID(n-2)), n/2, nm.Name(1))
	for _, q := range []struct{ method, target, body string }{
		{"GET", "/reachable?run=r&from=0&to=" + fmt.Sprint(n-1), ""},
		{"GET", "/reachable?run=r&from=" + nm.Name(2) + "&to=" + nm.Name(dag.VertexID(n-1)), ""},
		{"POST", "/batch", batch},
		{"GET", "/lineage?run=r&vertex=" + nm.Name(dag.VertexID(n/2)) + "&dir=up", ""},
		{"GET", "/lineage?run=r&vertex=" + fmt.Sprint(n/3) + "&dir=down", ""},
		{"GET", "/reachable?run=r&from=0&to=" + fmt.Sprint(n), ""},
	} {
		want := do(t, healthy, q.method, q.target, q.body, nil)
		got := do(t, broken, q.method, q.target, q.body, nil)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s %s: broken twin %d %s, healthy %d %s",
				q.method, q.target, got.Code, got.Body, want.Code, want.Body)
		}
	}
	rpq := `{"run":"r","from":"0","to":"1","pattern":".*"}`
	for _, q := range []struct{ method, target, body string }{
		{"POST", "/rpq", rpq},
		{"GET", "/runs/r", ""},
		{"GET", "/runs?run=r", ""},
	} {
		if rec := do(t, healthy, q.method, q.target, q.body, nil); rec.Code != 200 {
			t.Fatalf("healthy %s %s: %d %s", q.method, q.target, rec.Code, rec.Body)
		}
		rec := do(t, broken, q.method, q.target, q.body, nil)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "xmlio: decode run") {
			t.Errorf("broken %s %s: %d %s, want 500 with the decode error", q.method, q.target, rec.Code, rec.Body)
		}
	}
}

// Many goroutines hit a freshly loaded session's first path query and
// status at once: every one answers, identically, from one decoded run.
func TestFirstDocumentUseConcurrent(t *testing.T) {
	r, _ := run.GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(6)), 400)
	doc, labels := runBlobs(t, r)
	s := serverOver(t, doc, labels)
	if rec := do(t, s, "GET", "/reachable?run=r&from=0&to=1", "", nil); rec.Code != 200 {
		t.Fatalf("cold load: %d %s", rec.Code, rec.Body)
	}
	sess, ok := s.cache.Peek("r")
	if !ok {
		t.Fatal("run not resident after its first query")
	}
	rpq := fmt.Sprintf(`{"run":"r","from":"0","to":"%d","pattern":".*"}`, r.NumVertices()-1)
	const workers = 16
	bodies := make([]string, 2*workers)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rec *httptest.ResponseRecorder
			if i%2 == 0 {
				rec = do(t, s, "POST", "/rpq", rpq, nil)
			} else {
				rec = do(t, s, "GET", "/runs/r", "", nil)
			}
			if rec.Code != 200 {
				t.Errorf("worker %d: %d %s", i, rec.Code, rec.Body)
			}
			bodies[i] = rec.Body.String()
		}()
	}
	wg.Wait()
	for i := 2; i < len(bodies); i++ {
		if bodies[i] != bodies[i%2] {
			t.Fatalf("worker %d answered %s, worker %d %s", i, bodies[i], i%2, bodies[i%2])
		}
	}
	first, _, err := sess.Document()
	if err != nil {
		t.Fatal(err)
	}
	again, _, _ := sess.Document()
	if first != again || first.NumVertices() != r.NumVertices() || first.NumEdges() != r.NumEdges() {
		t.Fatalf("session decoded %p then %p (%d vertices, %d edges)", first, again, first.NumVertices(), first.NumEdges())
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("cache misses = %d, want the one cold load", st.Misses)
	}
}

// sameSizeRuns returns two runs of the paper specification with the
// same vertex count but different origin maps.
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

// A partial write between two same-size runs leaves the new labels next
// to the old document. Label queries answer consistently from the new
// labels; path queries and status report the mismatch as a plain error
// (500, not a retryable 503); a clean re-PUT heals both.
func TestPartialWriteTornPair(t *testing.T) {
	a, b := sameSizeRuns(t)
	fb := faultinject.Wrap(store.NewMemBackend(), faultinject.Plan{})
	st, err := store.New(fb, spec.PaperSpec(), "paper")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, EnableIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, s, "PUT", "/runs/t", encodeRun(t, a, nil), nil); rec.Code != 200 {
		t.Fatalf("PUT a: %d %s", rec.Code, rec.Body)
	}
	fb.SetPlan(faultinject.Plan{PerOp: map[faultinject.Op]faultinject.Rule{
		faultinject.OpWriteRun: {PartialRate: 1},
	}})
	if rec := do(t, s, "PUT", "/runs/t", encodeRun(t, b, nil), nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("partial PUT b: %d %s, want 503", rec.Code, rec.Body)
	}
	fb.SetPlan(faultinject.Plan{})

	// Label queries: the names and answers of b, the run the labels are of.
	nmB := run.NewNamer(b)
	searcher := dag.NewSearcher(b.Graph)
	checkReachable := func() {
		t.Helper()
		for u := 0; u < b.NumVertices(); u += 9 {
			v := b.NumVertices() - 1 - u
			var resp struct {
				Reachable bool `json:"reachable"`
			}
			target := "/reachable?run=t&from=" + nmB.Name(dag.VertexID(u)) + "&to=" + nmB.Name(dag.VertexID(v))
			if rec := do(t, s, "GET", target, "", &resp); rec.Code != 200 {
				t.Fatalf("%s: %d %s", target, rec.Code, rec.Body)
			}
			if want := searcher.ReachableBFS(dag.VertexID(u), dag.VertexID(v)); resp.Reachable != want {
				t.Fatalf("%s = %v, want %v", target, resp.Reachable, want)
			}
		}
	}
	checkReachable()
	rpq := `{"run":"t","from":"0","to":"1","pattern":".*"}`
	for _, q := range []struct{ method, target, body string }{
		{"POST", "/rpq", rpq},
		{"GET", "/runs/t", ""},
	} {
		rec := do(t, s, q.method, q.target, q.body, nil)
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "origin") {
			t.Fatalf("torn %s %s: %d %s, want 500 naming the origin mismatch", q.method, q.target, rec.Code, rec.Body)
		}
	}

	// The heal: a clean overwrite refreshes the resident session.
	if rec := do(t, s, "PUT", "/runs/t", encodeRun(t, b, nil), nil); rec.Code != 200 {
		t.Fatalf("healing PUT: %d %s", rec.Code, rec.Body)
	}
	checkReachable()
	var status struct {
		Vertices int `json:"vertices"`
		Edges    int `json:"edges"`
	}
	if rec := do(t, s, "GET", "/runs/t", "", &status); rec.Code != 200 || status.Vertices != b.NumVertices() || status.Edges != b.NumEdges() {
		t.Fatalf("status after heal: %d %+v", rec.Code, status)
	}
	if rec := do(t, s, "POST", "/rpq", rpq, nil); rec.Code != 200 {
		t.Fatalf("/rpq after heal: %d %s", rec.Code, rec.Body)
	}
}
