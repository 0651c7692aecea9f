package server

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

// newIngestServer builds a server over an empty (spec-only) mem store
// with the write path enabled.
func newIngestServer(t *testing.T, cfg Config) (*Server, *store.Store) {
	t.Helper()
	st, err := store.NewMem(spec.PaperSpec(), "paper")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	cfg.EnableIngest = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

// encodeRun renders a run (with optional data items) as the XML document
// the ingest endpoint accepts.
func encodeRun(t testing.TB, r *run.Run, ann *provdata.Annotation) string {
	t.Helper()
	var buf bytes.Buffer
	if err := xmlio.EncodeRun(&buf, r, ann, "paper"); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestIngest(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	rng := rand.New(rand.NewSource(11))
	sp := spec.PaperSpec()
	r, _ := run.GenerateSized(sp, rng, 120)
	ann := provdata.RandomItems(r, rng, 1.2, 0.3)

	var put struct {
		Run             string `json:"run"`
		Vertices        int    `json:"vertices"`
		DataItems       int    `json:"data_items"`
		SnapshotVersion string `json:"snapshot_version"`
		SnapshotBytes   int    `json:"snapshot_bytes"`
	}
	rec := do(t, s, "PUT", "/runs/r1", encodeRun(t, r, ann), &put)
	if rec.Code != 200 {
		t.Fatalf("PUT /runs/r1: %d %s", rec.Code, rec.Body.String())
	}
	if put.Run != "r1" || put.Vertices != r.NumVertices() || put.DataItems != len(ann.Items) {
		t.Fatalf("PUT response = %+v, want run r1 with %d vertices, %d items", put, r.NumVertices(), len(ann.Items))
	}
	if put.SnapshotVersion != "SKL2" || put.SnapshotBytes <= 0 {
		t.Fatalf("PUT response snapshot = %+v, want SKL2 with positive size", put)
	}

	// The run is immediately queryable and the answers match direct
	// graph search.
	searcher := dag.NewSearcher(r.Graph)
	n := r.NumVertices()
	for q := 0; q < 100; q++ {
		u, v := dag.VertexID(rng.Intn(n)), dag.VertexID(rng.Intn(n))
		var resp struct {
			Reachable bool `json:"reachable"`
		}
		rec := do(t, s, "GET", fmt.Sprintf("/reachable?run=r1&from=%d&to=%d", u, v), "", &resp)
		if rec.Code != 200 {
			t.Fatalf("reachable after ingest: %d %s", rec.Code, rec.Body.String())
		}
		if want := searcher.ReachableBFS(u, v); resp.Reachable != want {
			t.Fatalf("(%d,%d) after ingest: got %v want %v", u, v, resp.Reachable, want)
		}
	}

	var runs struct {
		Runs []string `json:"runs"`
	}
	do(t, s, "GET", "/runs", "", &runs)
	if len(runs.Runs) != 1 || runs.Runs[0] != "r1" {
		t.Fatalf("/runs after ingest = %+v", runs)
	}

	// Cache membership is driven by queries, not ingest: a PUT of a
	// never-queried name must not occupy (or evict from) the LRU.
	r2, _ := run.GenerateSized(sp, rng, 60)
	if rec := do(t, s, "PUT", "/runs/unqueried", encodeRun(t, r2, nil), nil); rec.Code != 200 {
		t.Fatalf("PUT unqueried: %d", rec.Code)
	}
	if cs := s.Stats(); cs.Cached != 1 {
		t.Fatalf("cache after un-queried PUT = %+v, want only the queried session resident", cs)
	}
}

// TestIngestOverwriteInvalidatesCache proves the cache-coherence
// contract: after an overwriting PUT, the very next query must see the
// new run — a stale cached session would otherwise keep answering for
// the old graph indefinitely (mem stores never miss again once warm).
func TestIngestOverwriteInvalidatesCache(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	sp := spec.PaperSpec()
	runA, _ := run.GenerateSized(sp, rand.New(rand.NewSource(1)), 100)
	runB, _ := run.GenerateSized(sp, rand.New(rand.NewSource(2)), 220)
	if runA.NumVertices() == runB.NumVertices() {
		t.Fatal("test needs runs of different sizes")
	}

	if rec := do(t, s, "PUT", "/runs/r", encodeRun(t, runA, nil), nil); rec.Code != 200 {
		t.Fatalf("first PUT: %d", rec.Code)
	}
	var detail struct {
		Vertices int `json:"vertices"`
	}
	do(t, s, "GET", "/runs?run=r", "", &detail) // warm the cache on runA
	if detail.Vertices != runA.NumVertices() {
		t.Fatalf("before overwrite: %d vertices, want %d", detail.Vertices, runA.NumVertices())
	}
	if rec := do(t, s, "PUT", "/runs/r", encodeRun(t, runB, nil), nil); rec.Code != 200 {
		t.Fatalf("overwriting PUT: %d", rec.Code)
	}
	do(t, s, "GET", "/runs?run=r", "", &detail)
	if detail.Vertices != runB.NumVertices() {
		t.Fatalf("after overwrite: %d vertices, want %d (stale session served)", detail.Vertices, runB.NumVertices())
	}
	if st := s.Stats(); st.Invalidations < 1 {
		t.Fatalf("stats after overwrite = %+v, want >= 1 invalidation", st)
	}
}

func TestIngestRejections(t *testing.T) {
	s, _ := newIngestServer(t, Config{MaxIngestBytes: 4096})
	sp := spec.PaperSpec()
	r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(3)), 40)
	good := encodeRun(t, r, nil)

	cases := []struct {
		name, target, body string
		want               int
	}{
		{"invalid run name", "/runs/..evil", good, 400},
		{"malformed xml", "/runs/ok", "<run><nope", 400},
		{"wrong document", "/runs/ok", "<workflow></workflow>", 400},
		{"oversized body", "/runs/ok", good + strings.Repeat("<!-- pad -->", 4096), 413},
		// Passes run.Validate, but the copy of the loop e..g has two
		// sinks, so no execution plan describes it.
		{"no execution plan", "/runs/ok", `<run><vertices><vertex id="0" module="a"/><vertex id="1" module="h"/>` +
			`<vertex id="2" module="d"/><vertex id="3" module="e"/><vertex id="4" module="g"/><vertex id="5" module="f"/>` +
			`<vertex id="6" module="e"/><vertex id="7" module="g"/><vertex id="8" module="f"/><vertex id="9" module="f"/>` +
			`<vertex id="10" module="b"/><vertex id="11" module="c"/><vertex id="12" module="b"/><vertex id="13" module="c"/>` +
			`<vertex id="14" module="b"/><vertex id="15" module="c"/></vertices><edges>` +
			`<edge from="0" to="10"/><edge from="0" to="14"/><edge from="0" to="2"/><edge from="2" to="3"/>` +
			`<edge from="3" to="5"/><edge from="4" to="6"/><edge from="5" to="4"/><edge from="6" to="8"/>` +
			`<edge from="3" to="9"/><edge from="7" to="1"/><edge from="8" to="7"/><edge from="9" to="7"/>` +
			`<edge from="10" to="11"/><edge from="11" to="12"/><edge from="12" to="13"/><edge from="13" to="1"/>` +
			`<edge from="14" to="15"/><edge from="15" to="1"/></edges></run>`, 400},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		rec := do(t, s, "PUT", c.target, c.body, &e)
		if rec.Code != c.want {
			t.Errorf("%s: status %d (want %d), body %s", c.name, rec.Code, c.want, rec.Body.String())
		}
		if e.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}

	// GET on a run path is the status endpoint: 404 for a run that does
	// not exist, not a method mismatch.
	if rec := do(t, s, "GET", "/runs/nosuch", "", nil); rec.Code != 404 {
		t.Errorf("GET /runs/nosuch = %d, want 404", rec.Code)
	}

	// A read-only server refuses the write path outright.
	st, err := store.NewMem(sp, "paper")
	if err != nil {
		t.Fatal(err)
	}
	ro, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, ro, "PUT", "/runs/ok", good, nil); rec.Code != 403 {
		t.Errorf("PUT on read-only server = %d, want 403", rec.Code)
	}
}

// gatedBackend delays ReadRun until the gate closes, simulating a slow
// substrate so admission tests can hold a request in flight on demand.
type gatedBackend struct {
	store.Backend
	gate    chan struct{}
	loading chan struct{} // receives one value per ReadRun entry
}

func (b *gatedBackend) ReadRun(name string) (io.ReadCloser, error) {
	select {
	case b.loading <- struct{}{}:
	default:
	}
	<-b.gate
	return b.Backend.ReadRun(name)
}

// TestAdmissionQueueSaturation drives the concurrency gate to its
// bounds: with one slot and a queue of one, the third concurrent
// request must shed with 429 + Retry-After while the first two complete
// once the store unblocks.
func TestAdmissionQueueSaturation(t *testing.T) {
	gb := &gatedBackend{
		Backend: store.NewMemBackend(),
		gate:    make(chan struct{}),
		loading: make(chan struct{}, 8),
	}
	st, err := store.New(gb, spec.PaperSpec(), "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(5)), 80)
	if err := st.PutRun("r", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, MaxInflight: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}

	type result struct{ code int }
	results := make(chan result, 2)
	query := func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", "/reachable?run=r&from=0&to=1", nil))
		results <- result{rec.Code}
	}
	go query()
	<-gb.loading // request 1 holds the slot inside the store load
	go query()
	waitFor(t, func() bool { return s.AdmissionState().Queued == 1 }, "second request queued")

	// Slot busy, queue full: request 3 is shed immediately.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/reachable?run=r&from=0&to=1", nil))
	if rec.Code != 429 {
		t.Fatalf("saturated request = %d, want 429 (body %s)", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	// /healthz stays reachable while the gate is saturated.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("/healthz under saturation = %d", rec.Code)
	}

	close(gb.gate)
	for i := 0; i < 2; i++ {
		if res := <-results; res.code != 200 {
			t.Fatalf("queued request %d finished with %d", i, res.code)
		}
	}
	adm := s.AdmissionState()
	if adm.RejectedQueue != 1 || adm.Admitted != 2 || adm.Inflight != 0 || adm.Queued != 0 {
		t.Fatalf("admission stats = %+v", adm)
	}
	if adm.PeakInflight > 1 {
		t.Fatalf("peak inflight %d exceeded the configured bound 1", adm.PeakInflight)
	}
}

// TestIngestStress is the write-path concurrency audit (run under
// -race): concurrent writers overwriting one shared run name and
// writing distinct names, while readers query throughout. Afterwards
// the queue bounds must have held, no update may be lost, and the
// cache/admission gauges must be back to idle.
func TestIngestStress(t *testing.T) {
	const (
		writers  = 4
		readers  = 6
		rounds   = 8
		inflight = 4
	)
	s, _ := newIngestServer(t, Config{CacheSize: 4, MaxInflight: inflight, QueueDepth: 256})
	sp := spec.PaperSpec()
	docs := make([]string, writers)
	sizes := make([]int, writers)
	for g := range docs {
		r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(int64(100+g))), 80+20*g)
		docs[g] = encodeRun(t, r, nil)
		sizes[g] = r.NumVertices()
	}

	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Alternate between the shared, contended name and a
				// private one: same-name serialization and distinct-name
				// parallelism both get exercised.
				name := "hot"
				if i%2 == 1 {
					name = fmt.Sprintf("w%d-%d", g, i)
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("PUT", "/runs/"+name, strings.NewReader(docs[g])))
				if rec.Code != 200 {
					t.Errorf("PUT %s: %d %s", name, rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	for g := 0; g < readers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				var target string
				switch i % 3 {
				case 0:
					target = "/runs?run=hot"
				case 1:
					target = fmt.Sprintf("/reachable?run=hot&from=%d&to=%d", rng.Intn(40), rng.Intn(40))
				default:
					target = "/runs"
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
				// 404 is legal before the first PUT lands; 5xx never is.
				if rec.Code != 200 && rec.Code != 404 {
					t.Errorf("GET %s: %d %s", target, rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	adm := s.AdmissionState()
	if adm.PeakInflight > inflight {
		t.Fatalf("peak inflight %d exceeded bound %d", adm.PeakInflight, inflight)
	}
	if adm.Inflight != 0 || adm.Queued != 0 || adm.RejectedQueue != 0 {
		t.Fatalf("admission gauges not idle after stress: %+v", adm)
	}
	cs := s.Stats()
	if cs.Cached > 4 {
		t.Fatalf("cache over capacity: %+v", cs)
	}

	// No lost update: a final PUT must win, and its content must be what
	// every subsequent query sees.
	final, _ := run.GenerateSized(sp, rand.New(rand.NewSource(999)), 300)
	if rec := do(t, s, "PUT", "/runs/hot", encodeRun(t, final, nil), nil); rec.Code != 200 {
		t.Fatalf("final PUT: %d", rec.Code)
	}
	var detail struct {
		Vertices int `json:"vertices"`
	}
	do(t, s, "GET", "/runs?run=hot", "", &detail)
	if detail.Vertices != final.NumVertices() {
		t.Fatalf("final state has %d vertices, want %d (lost update)", detail.Vertices, final.NumVertices())
	}
	// The storm's intermediate states must all have been one of the
	// written documents — check the store's final listing is complete:
	// every private name from every round landed.
	var runs struct {
		Runs []string `json:"runs"`
	}
	do(t, s, "GET", "/runs", "", &runs)
	want := 1 + writers*rounds/2 // "hot" + every odd round's private name
	if len(runs.Runs) != want {
		t.Fatalf("store holds %d runs after stress, want %d: %v", len(runs.Runs), want, runs.Runs)
	}
}

// TestIngestNoTornSessions pins the write/load coherence fix: with a
// one-entry cache, a reader that forces cold loads of a run while a
// writer keeps overwriting it must never observe a torn session — an
// old run document paired with new labels surfaces as a 500 (vertex
// count mismatch) when the sizes differ, or as silently wrong answers
// when they happen to match. The per-name reader/writer lock makes
// every load see a complete pair.
func TestIngestNoTornSessions(t *testing.T) {
	s, _ := newIngestServer(t, Config{CacheSize: 1})
	sp := spec.PaperSpec()
	runA, _ := run.GenerateSized(sp, rand.New(rand.NewSource(31)), 80)
	runB, _ := run.GenerateSized(sp, rand.New(rand.NewSource(32)), 160)
	docA, docB := encodeRun(t, runA, nil), encodeRun(t, runB, nil)
	sizes := map[int]bool{runA.NumVertices(): true, runB.NumVertices(): true}
	other, _ := run.GenerateSized(sp, rand.New(rand.NewSource(33)), 60)
	if rec := do(t, s, "PUT", "/runs/other", encodeRun(t, other, nil), nil); rec.Code != 200 {
		t.Fatalf("seeding other: %d", rec.Code)
	}
	if rec := do(t, s, "PUT", "/runs/hot", docA, nil); rec.Code != 200 {
		t.Fatalf("seeding hot: %d", rec.Code)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			doc := docA
			if i%2 == 1 {
				doc = docB
			}
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("PUT", "/runs/hot", strings.NewReader(doc)))
			if rec.Code != 200 {
				t.Errorf("overwriting PUT: %d %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	for i := 0; i < 150 && !t.Failed(); i++ {
		// Touch "other" first: with capacity 1 this evicts "hot", so the
		// next query is a cold load racing the overwrite in flight.
		if rec := do(t, s, "GET", "/runs?run=other", "", nil); rec.Code != 200 {
			t.Fatalf("iteration %d: other: %d %s", i, rec.Code, rec.Body.String())
		}
		var detail struct {
			Vertices int `json:"vertices"`
		}
		rec := do(t, s, "GET", "/runs?run=hot", "", &detail)
		if rec.Code != 200 {
			t.Fatalf("iteration %d: torn session surfaced: %d %s", i, rec.Code, rec.Body.String())
		}
		if !sizes[detail.Vertices] {
			t.Fatalf("iteration %d: session has %d vertices, matching neither written run", i, detail.Vertices)
		}
	}
	close(done)
	wg.Wait()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// runContent renders what a decoded run document says, for comparing
// two documents of one run: each vertex's origin and out-edges in
// order, and each named data item's consumer set by producer and name.
// Item order and repeated channels are layout, not content. Items with
// an empty name are left out, because the canonical encoding omits them.
func runContent(r *run.Run, ann *provdata.Annotation) string {
	var b strings.Builder
	for v := range r.NumVertices() {
		fmt.Fprintf(&b, "%d:%d->%v\n", v, r.Origin[v], r.Graph.Out(dag.VertexID(v)))
	}
	if ann == nil {
		return b.String()
	}
	var items []string
	for _, it := range ann.Items {
		if it.Name == "" {
			continue
		}
		cs := slices.Clone(it.Consumers)
		slices.Sort(cs)
		items = append(items, fmt.Sprintf("%d %q %v", it.Producer, it.Name, slices.Compact(cs)))
	}
	slices.Sort(items)
	b.WriteString(strings.Join(items, "\n"))
	return b.String()
}

// A PUT stores the request body byte for byte, however it is laid out,
// and serves exactly what a PUT of the run's canonical encoding serves.
func TestPutStoresReceivedBytes(t *testing.T) {
	sp := spec.PaperSpec()
	rng := rand.New(rand.NewSource(23))
	r, _ := run.GenerateSized(sp, rng, 80)
	ann := provdata.RandomItems(r, rng, 1.0, 0.4)
	canonical := encodeRun(t, r, ann)
	body := `<?xml version="1.0" encoding="UTF-8"?>` + "\n<!-- sent by a client -->\r\n" +
		strings.NewReplacer(
			`<run workflow="paper">`, "<run  workflow='elsewhere'\n\t>\n  <notes kind=\"x\"><n>not part of the run</n></notes>",
			`"></vertex>`, `"  />`,
			"\n    <edge ", "\n\t\t<edge   ",
			"<data>", "<data><!-- item -->",
		).Replace(canonical) + "<!-- trailing -->\n"
	if !strings.Contains(canonical, "<data>") {
		t.Fatal("the run has no data items")
	}

	got, gotStore := newIngestServer(t, Config{})
	want, _ := newIngestServer(t, Config{})
	if rec := do(t, got, "PUT", "/runs/r", body, nil); rec.Code != 200 {
		t.Fatalf("PUT odd layout: %d %s", rec.Code, rec.Body)
	}
	if rec := do(t, want, "PUT", "/runs/r", canonical, nil); rec.Code != 200 {
		t.Fatalf("PUT canonical: %d %s", rec.Code, rec.Body)
	}

	rc, err := gotStore.Backend().ReadRun("r")
	if err != nil {
		t.Fatal(err)
	}
	stored, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(stored) != body {
		t.Fatalf("stored document differs from the body sent:\n%s\nwant\n%s", stored, body)
	}

	wr, wann, err := xmlio.DecodeRunBytes([]byte(canonical), sp)
	if err != nil {
		t.Fatal(err)
	}
	held, err := xmlio.ReadRunDocument(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	put, err := gotStore.PutRunDocument("direct", held, label.TCM{})
	held.Release()
	if err != nil {
		t.Fatal(err)
	}
	opened, err := gotStore.OpenRun("r", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	for name, sess := range map[string]*store.Session{"PutRunDocument": put, "OpenRun": opened} {
		r, ann, err := sess.Document()
		if err != nil {
			t.Fatal(err)
		}
		if g, w := runContent(r, ann), runContent(wr, wann); g != w || len(ann.Items) != len(wann.Items) {
			t.Errorf("%s session's document differs from the canonical decode:\n%s\nwant\n%s", name, g, w)
		}
	}

	nm := run.NewNamer(r)
	for _, q := range []struct{ method, target, body string }{
		{"GET", "/runs/r", ""},
		{"GET", "/runs?run=r", ""},
		{"POST", "/rpq", `{"run":"r","from":"0","to":"` + fmt.Sprint(r.NumVertices()-1) + `","pattern":".*"}`},
		{"GET", "/lineage?run=r&vertex=" + nm.Name(dag.VertexID(r.NumVertices()/2)) + "&dir=up", ""},
		{"GET", "/lineage?run=r&vertex=" + nm.Name(3) + "&dir=down", ""},
	} {
		g := do(t, got, q.method, q.target, q.body, nil)
		w := do(t, want, q.method, q.target, q.body, nil)
		if g.Code != 200 || g.Code != w.Code || g.Body.String() != w.Body.String() {
			t.Errorf("%s %s: %d %s, canonical PUT answers %d %s", q.method, q.target, g.Code, g.Body, w.Code, w.Body)
		}
	}
}

// statusWriter is a ResponseWriter kept across requests that keeps only
// the status code.
type statusWriter struct {
	h    http.Header
	code int
}

func (w *statusWriter) Header() http.Header       { return w.h }
func (*statusWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *statusWriter) WriteHeader(code int)      { w.code = code }

// A PUT allocates about as often for a 16,245-vertex run as for a
// 1,029-vertex one: the body is decoded in the decoder it was read
// into, validation and plan construction run on pooled scratch, and
// what remains per PUT (the run, its plan and labels, the stored
// copies) is allocated in a number of pieces that does not depend on
// the run's size. Collection is off while it counts, as in make
// trend's write-path rows: a collection empties the pools, and how
// often one runs during a PUT depends on the heap, not on the code.
func TestPutAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sp := workload.MustStandIn("QBLAST", 1)
	st, err := store.NewMem(sp, "QBLAST")
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Store: st, EnableIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(target int) (int, float64) {
		r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(int64(target))), target)
		var doc bytes.Buffer
		if err := xmlio.EncodeRun(&doc, r, nil, "QBLAST"); err != nil {
			t.Fatal(err)
		}
		body := bytes.NewReader(doc.Bytes())
		req := httptest.NewRequest("PUT", "/runs/r", nil)
		w := &statusWriter{h: make(http.Header)}
		put := func() {
			body.Reset(doc.Bytes())
			req.Body = io.NopCloser(body)
			clear(w.h)
			w.code = 0
			s.ServeHTTP(w, req)
			if w.code != 200 {
				t.Fatalf("PUT of %d vertices: status %d", r.NumVertices(), w.code)
			}
		}
		put() // grow the pooled scratch
		return r.NumVertices(), testing.AllocsPerRun(10, put)
	}
	smallN, small := allocs(1000)
	largeN, large := allocs(16000)
	t.Logf("PUT allocs: %v at %d vertices, %v at %d", small, smallN, large, largeN)
	if large > small+16 {
		t.Fatalf("PUT allocs grow with the run: %v at %d vertices, %v at %d", small, smallN, large, largeN)
	}
}
