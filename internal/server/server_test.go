package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/live"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// newTestStore builds an on-disk store with the paper spec and two runs:
// "alpha" (with data items) and "beta".
func newTestStore(t *testing.T) (string, *store.Store) {
	t.Helper()
	dir := t.TempDir()
	s := spec.PaperSpec()
	st, err := store.Create(dir, s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i, name := range []string{"alpha", "beta"} {
		r, _ := run.GenerateSized(s, rng, 150+150*i)
		var ann *provdata.Annotation
		if name == "alpha" {
			ann = provdata.RandomItems(r, rng, 1.2, 0.3)
		}
		if err := st.PutRun(name, r, ann, label.TCM{}); err != nil {
			t.Fatalf("PutRun(%s): %v", name, err)
		}
	}
	return dir, st
}

func newTestServer(t *testing.T, st *store.Store, cacheSize, maxBatch int) *Server {
	t.Helper()
	s, err := New(Config{Store: st, CacheSize: cacheSize, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// get issues a request against the handler directly and decodes the JSON
// response body into out (which may be nil).
func do(t *testing.T, s *Server, method, target, body string, out any) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	checkReencodes(t, req, rec.Body.Bytes())
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, target, rec.Body.String(), err)
		}
	}
	return rec
}

// checkReencodes asserts that a JSON object body is byte for byte what
// encoding/json writes for its decoded form: sorted keys, HTML-safe
// escaping, a trailing newline. /batch keeps its struct's field order,
// /healthz the field order of its nested stats structs, and U+FFFD may
// stand for invalid UTF-8 the decode cannot restore, so none of those
// is checked here.
func checkReencodes(t testing.TB, req *http.Request, body []byte) {
	t.Helper()
	if len(body) == 0 || body[0] != '{' || req.URL.Path == "/batch" || req.URL.Path == "/healthz" ||
		bytes.Contains(body, []byte(`\ufffd`)) || bytes.ContainsRune(body, utf8.RuneError) {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", req.Method, req.URL, body, err)
	}
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(v); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want.Bytes()) {
		t.Fatalf("%s %s: body is not encoding/json's\n got %q\nwant %q", req.Method, req.URL, body, want.Bytes())
	}
}

func TestEndpoints(t *testing.T) {
	_, st := newTestStore(t)
	s := newTestServer(t, st, 4, 100)

	var health struct {
		Status string `json:"status"`
		Spec   string `json:"spec"`
		Scheme string `json:"scheme"`
	}
	if rec := do(t, s, "GET", "/healthz", "", &health); rec.Code != 200 {
		t.Fatalf("/healthz: %d", rec.Code)
	}
	if health.Status != "ok" || health.Spec != "paper" || health.Scheme != "TCM" {
		t.Fatalf("/healthz = %+v", health)
	}

	var specs struct {
		Name     string   `json:"name"`
		Vertices int      `json:"vertices"`
		Modules  []string `json:"modules"`
	}
	do(t, s, "GET", "/specs", "", &specs)
	if specs.Name != "paper" || specs.Vertices != st.Spec().NumVertices() || len(specs.Modules) != specs.Vertices {
		t.Fatalf("/specs = %+v", specs)
	}

	var runs struct {
		Runs []string `json:"runs"`
	}
	do(t, s, "GET", "/runs", "", &runs)
	if len(runs.Runs) != 2 || runs.Runs[0] != "alpha" || runs.Runs[1] != "beta" {
		t.Fatalf("/runs = %+v", runs)
	}

	var detail struct {
		Vertices  int `json:"vertices"`
		DataItems int `json:"data_items"`
		MaxBits   int `json:"max_label_bits"`
	}
	do(t, s, "GET", "/runs?run=alpha", "", &detail)
	if detail.Vertices == 0 || detail.DataItems == 0 || detail.MaxBits == 0 {
		t.Fatalf("/runs?run=alpha = %+v", detail)
	}
}

func TestReachableMatchesGraphSearch(t *testing.T) {
	_, st := newTestStore(t)
	s := newTestServer(t, st, 4, 100)
	sess, err := st.OpenRun("beta", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	rn := document(t, sess)
	searcher := dag.NewSearcher(rn.Graph)
	nm := run.NewNamer(rn)
	rng := rand.New(rand.NewSource(3))
	n := rn.NumVertices()
	for q := 0; q < 200; q++ {
		u := dag.VertexID(rng.Intn(n))
		v := dag.VertexID(rng.Intn(n))
		// Alternate between name and numeric-ID addressing.
		from, to := nm.Name(u), fmt.Sprint(int(v))
		var resp struct {
			Reachable bool `json:"reachable"`
		}
		rec := do(t, s, "GET", "/reachable?run=beta&from="+from+"&to="+to, "", &resp)
		if rec.Code != 200 {
			t.Fatalf("query %d: status %d body %s", q, rec.Code, rec.Body.String())
		}
		if want := searcher.ReachableBFS(u, v); resp.Reachable != want {
			t.Fatalf("(%s,%s): got %v want %v", from, to, resp.Reachable, want)
		}
	}
}

func TestBatch(t *testing.T) {
	_, st := newTestStore(t)
	s := newTestServer(t, st, 4, 8)
	sess, err := st.OpenRun("alpha", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	rn := document(t, sess)
	searcher := dag.NewSearcher(rn.Graph)
	rng := rand.New(rand.NewSource(5))
	n := rn.NumVertices()
	pairs := make([][2]string, 8)
	want := make([]bool, len(pairs))
	for i := range pairs {
		u := dag.VertexID(rng.Intn(n))
		v := dag.VertexID(rng.Intn(n))
		pairs[i] = [2]string{fmt.Sprint(int(u)), fmt.Sprint(int(v))}
		want[i] = searcher.ReachableBFS(u, v)
	}
	body, _ := json.Marshal(map[string]any{"run": "alpha", "pairs": pairs})
	var resp struct {
		Count   int    `json:"count"`
		Results []bool `json:"results"`
	}
	rec := do(t, s, "POST", "/batch", string(body), &resp)
	if rec.Code != 200 {
		t.Fatalf("/batch: status %d body %s", rec.Code, rec.Body.String())
	}
	if resp.Count != len(pairs) {
		t.Fatalf("count = %d, want %d", resp.Count, len(pairs))
	}
	for i := range want {
		if resp.Results[i] != want[i] {
			t.Fatalf("pair %d (%v): got %v want %v", i, pairs[i], resp.Results[i], want[i])
		}
	}
}

func TestLineage(t *testing.T) {
	_, st := newTestStore(t)
	s := newTestServer(t, st, 4, 100)
	sess, err := st.OpenRun("beta", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	rn := document(t, sess)
	nm := run.NewNamer(rn)
	// The run's sink depends on everything upstream; check count against
	// a direct graph traversal for a handful of vertices.
	for _, v := range []dag.VertexID{0, dag.VertexID(rn.NumVertices() / 2), dag.VertexID(rn.NumVertices() - 1)} {
		for _, dir := range []string{"up", "down"} {
			var resp struct {
				Count int      `json:"count"`
				Cone  []string `json:"cone"`
			}
			rec := do(t, s, "GET", "/lineage?run=beta&dir="+dir+"&vertex="+nm.Name(v), "", &resp)
			if rec.Code != 200 {
				t.Fatalf("lineage(%d,%s): status %d", v, dir, rec.Code)
			}
			var want int
			if dir == "up" {
				want = len(coneSize(rn.Graph, v, true))
			} else {
				want = len(coneSize(rn.Graph, v, false))
			}
			if resp.Count != want || len(resp.Cone) != want {
				t.Fatalf("lineage(%s,%s): got %d want %d", nm.Name(v), dir, resp.Count, want)
			}
		}
	}
}

// coneSize is a reference BFS cone (excluding the start vertex).
func coneSize(g *dag.Graph, v dag.VertexID, reverse bool) []dag.VertexID {
	seen := make([]bool, g.NumVertices())
	seen[v] = true
	queue := []dag.VertexID{v}
	var out []dag.VertexID
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		next := g.Out(x)
		if reverse {
			next = g.In(x)
		}
		for _, w := range next {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
				queue = append(queue, w)
			}
		}
	}
	return out
}

func TestMalformedRequests(t *testing.T) {
	_, st := newTestStore(t)
	s := newTestServer(t, st, 4, 4)
	cases := []struct {
		method, target, body string
		want                 int
	}{
		{"GET", "/reachable", "", 400},                             // missing run
		{"GET", "/reachable?run=alpha", "", 400},                   // missing from/to
		{"GET", "/reachable?run=nosuch&from=a1&to=h1", "", 404},    // unknown run
		{"GET", "/reachable?run=..%2Fspec&from=a1&to=h1", "", 400}, // invalid run name, not 500
		{"GET", "/reachable?run=alpha&from=zz9&to=a1", "", 404},    // unknown vertex
		{"GET", "/reachable?run=alpha&from=999999&to=a1", "", 404}, // ID out of range
		{"GET", "/runs?run=nosuch", "", 404},
		{"POST", "/batch", "{not json", 400},
		{"POST", "/batch", `{"run":"alpha","pairs":[["a1","h1"],["a1","h1"],["a1","h1"],["a1","h1"],["a1","h1"]]}`, 413},
		// An over-limit body is 413 (MaxBytesReader), not a generic 400.
		{"POST", "/batch", `{"run":"alpha","pairs":[["` + strings.Repeat("x", 8192) + `","h1"]]}`, 413},
		{"POST", "/batch", `{"run":"alpha","pairs":[["a1","zz9"]]}`, 404},
		{"GET", "/batch", "", 405},
		{"POST", "/reachable?run=alpha&from=a1&to=h1", "", 405},
		{"GET", "/lineage?run=alpha", "", 400},
		{"GET", "/lineage?run=alpha&vertex=a1&dir=sideways", "", 400},
		{"GET", "/lineage?run=alpha&vertex=zz9", "", 404},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		rec := do(t, s, c.method, c.target, c.body, &e)
		if rec.Code != c.want {
			t.Errorf("%s %s: status %d (want %d), body %s", c.method, c.target, rec.Code, c.want, rec.Body.String())
		}
		if e.Error == "" {
			t.Errorf("%s %s: no error message in %s", c.method, c.target, rec.Body.String())
		}
	}
}

// TestCacheHitMissEviction drives the LRU through hit, miss and eviction
// and proves cache hits do zero disk I/O by deleting the store's run
// files after warming the cache.
func TestCacheHitMissEviction(t *testing.T) {
	dir, st := newTestStore(t)
	s := newTestServer(t, st, 1, 100) // capacity 1 forces eviction

	query := func(runName string) int {
		rec := do(t, s, "GET", "/reachable?run="+runName+"&from=a1&to=0", "", nil)
		return rec.Code
	}
	if code := query("alpha"); code != 200 { // miss, load
		t.Fatalf("alpha: %d", code)
	}
	if code := query("alpha"); code != 200 { // hit
		t.Fatalf("alpha again: %d", code)
	}
	st1 := s.Stats()
	if st1.Misses != 1 || st1.Hits != 1 || st1.Evictions != 0 || st1.Cached != 1 {
		t.Fatalf("after warm: %+v", st1)
	}

	if code := query("beta"); code != 200 { // miss; successful load evicts alpha
		t.Fatalf("beta: %d", code)
	}
	st2 := s.Stats()
	if st2.Misses != 2 || st2.Evictions != 1 || st2.Cached != 1 {
		t.Fatalf("after eviction: %+v", st2)
	}

	// Remove the run files: cache hits must keep working, misses must
	// fail — and a failed load must not evict the live session.
	if err := os.RemoveAll(filepath.Join(dir, "runs")); err != nil {
		t.Fatal(err)
	}
	if code := query("beta"); code != 200 {
		t.Fatalf("cached beta after file removal: %d (cache hit touched disk)", code)
	}
	if code := query("alpha"); code != 404 { // miss -> disk -> not found
		t.Fatalf("alpha after file removal: %d, want 404", code)
	}
	if code := query("beta"); code != 200 {
		t.Fatalf("beta after failed alpha load: %d (failed load evicted a live session)", code)
	}
	st3 := s.Stats()
	if st3.Evictions != 1 || st3.Cached != 1 {
		t.Fatalf("after failed load: %+v", st3)
	}
}

// TestSingleflight verifies that concurrent Gets for the same key
// trigger exactly one load.
func TestSingleflight(t *testing.T) {
	loads := 0
	started := make(chan struct{})
	release := make(chan struct{})
	c := newSessionCache(4, func(name string) (*session, error) {
		loads++
		close(started)
		<-release
		return &session{}, nil
	})

	var wg sync.WaitGroup
	results := make([]*session, 16)
	wg.Add(1)
	go func() { defer wg.Done(); results[0], _ = c.Get("x") }()
	<-started // the first load is in flight
	for i := 1; i < len(results); i++ {
		i := i
		wg.Add(1)
		go func() { defer wg.Done(); results[i], _ = c.Get("x") }()
	}
	close(release)
	wg.Wait()
	if loads != 1 {
		t.Fatalf("loads = %d, want 1", loads)
	}
	for i, r := range results {
		if r != results[0] || r == nil {
			t.Fatalf("waiter %d got a different session", i)
		}
	}
}

// TestConcurrentServer hammers every endpoint from many goroutines with
// a cache small enough to force constant eviction churn; run under
// -race this is the serving layer's concurrency audit.
func TestConcurrentServer(t *testing.T) {
	_, st := newTestStore(t)
	s := newTestServer(t, st, 1, 100)
	runs := []string{"alpha", "beta"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for q := 0; q < 100; q++ {
				runName := runs[rng.Intn(len(runs))]
				switch q % 4 {
				case 0:
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("GET",
						fmt.Sprintf("/reachable?run=%s&from=%d&to=%d", runName, rng.Intn(100), rng.Intn(100)), nil))
					if rec.Code != 200 {
						t.Errorf("reachable: %d", rec.Code)
						return
					}
				case 1:
					body, _ := json.Marshal(map[string]any{
						"run":   runName,
						"pairs": [][2]string{{fmt.Sprint(rng.Intn(100)), fmt.Sprint(rng.Intn(100))}},
					})
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", strings.NewReader(string(body))))
					if rec.Code != 200 {
						t.Errorf("batch: %d", rec.Code)
						return
					}
				case 2:
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("GET",
						fmt.Sprintf("/lineage?run=%s&vertex=%d", runName, rng.Intn(100)), nil))
					if rec.Code != 200 {
						t.Errorf("lineage: %d", rec.Code)
						return
					}
				default:
					rec := httptest.NewRecorder()
					s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
					if rec.Code != 200 {
						t.Errorf("healthz: %d", rec.Code)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestServerAllBackends serves the same workload from fs- and
// mem-backed stores: the server is backend-agnostic by construction
// (it only sees store.Store), and /healthz reports which substrate is
// underneath.
func TestServerAllBackends(t *testing.T) {
	s := spec.PaperSpec()
	backends := []struct {
		kind string
		make func(t *testing.T) *store.Store
	}{
		{"fs", func(t *testing.T) *store.Store {
			st, err := store.Create(t.TempDir(), s, "paper")
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
		{"mem", func(t *testing.T) *store.Store {
			st, err := store.NewMem(s, "paper")
			if err != nil {
				t.Fatal(err)
			}
			return st
		}},
	}
	for _, bk := range backends {
		bk := bk
		t.Run(bk.kind, func(t *testing.T) {
			st := bk.make(t)
			rng := rand.New(rand.NewSource(13))
			for _, name := range []string{"alpha", "beta"} {
				r, _ := run.GenerateSized(s, rng, 150)
				if err := st.PutRun(name, r, nil, label.TCM{}); err != nil {
					t.Fatalf("PutRun(%s): %v", name, err)
				}
			}
			srv := newTestServer(t, st, 4, 100)

			var health struct {
				Status string      `json:"status"`
				Store  store.Stats `json:"store"`
			}
			if rec := do(t, srv, "GET", "/healthz", "", &health); rec.Code != 200 {
				t.Fatalf("/healthz: %d", rec.Code)
			}
			if health.Status != "ok" || health.Store.Kind != bk.kind {
				t.Fatalf("/healthz = %+v, want store kind %q", health, bk.kind)
			}

			var runs struct {
				Runs []string `json:"runs"`
			}
			do(t, srv, "GET", "/runs", "", &runs)
			if len(runs.Runs) != 2 || runs.Runs[0] != "alpha" || runs.Runs[1] != "beta" {
				t.Fatalf("/runs = %+v", runs)
			}

			var reach struct {
				Reachable bool `json:"reachable"`
			}
			if rec := do(t, srv, "GET", "/reachable?run=beta&from=a1&to=h1", "", &reach); rec.Code != 200 || !reach.Reachable {
				t.Fatalf("/reachable = %d %+v, want 200 true", rec.Code, reach)
			}
			if rec := do(t, srv, "GET", "/reachable?run=missing&from=a1&to=h1", "", nil); rec.Code != 404 {
				t.Fatalf("missing run over %s backend = %d, want 404", bk.kind, rec.Code)
			}
		})
	}
}

// TestBatchNumericPairs verifies the /batch decoder's second accepted
// form — bare integers — and that mixed forms answer identically to the
// all-strings form.
func TestBatchNumericPairs(t *testing.T) {
	_, st := newTestStore(t)
	s := newTestServer(t, st, 4, 100)
	sess, err := st.OpenRun("beta", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	rn := document(t, sess)
	nm := run.NewNamer(rn)
	rng := rand.New(rand.NewSource(17))
	n := rn.NumVertices()
	type resp struct {
		Count   int    `json:"count"`
		Results []bool `json:"results"`
	}
	var pairsStr, pairsMixed []string
	for i := 0; i < 12; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		pairsStr = append(pairsStr, fmt.Sprintf(`["%d","%d"]`, u, v))
		switch i % 3 {
		case 0:
			pairsMixed = append(pairsMixed, fmt.Sprintf(`[%d,%d]`, u, v))
		case 1:
			pairsMixed = append(pairsMixed, fmt.Sprintf(`[%d,"%s"]`, u, nm.Name(dag.VertexID(v))))
		default:
			pairsMixed = append(pairsMixed, fmt.Sprintf(`["%s",%d]`, nm.Name(dag.VertexID(u)), v))
		}
	}
	var rs, rm resp
	recS := do(t, s, "POST", "/batch", `{"run":"beta","pairs":[`+strings.Join(pairsStr, ",")+`]}`, &rs)
	recM := do(t, s, "POST", "/batch", `{"run":"beta","pairs":[`+strings.Join(pairsMixed, ",")+`]}`, &rm)
	if recS.Code != 200 || recM.Code != 200 {
		t.Fatalf("statuses %d, %d; bodies %s / %s", recS.Code, recM.Code, recS.Body, recM.Body)
	}
	if rs.Count != 12 || rm.Count != 12 {
		t.Fatalf("counts %d, %d", rs.Count, rm.Count)
	}
	for i := range rs.Results {
		if rs.Results[i] != rm.Results[i] {
			t.Fatalf("pair %d: string form %v, mixed form %v", i, rs.Results[i], rm.Results[i])
		}
	}
	// Numeric IDs out of range are 404, like their string twins.
	if rec := do(t, s, "POST", "/batch", `{"run":"beta","pairs":[[999999,0]]}`, nil); rec.Code != 404 {
		t.Fatalf("out-of-range numeric ID: %d, want 404", rec.Code)
	}
}

// TestBatchParallel answers one batch large enough to fan out across
// CPUs and checks it pair by pair against the same pairs asked one at a
// time through /reachable.
func TestBatchParallel(t *testing.T) {
	_, st := newTestStore(t)
	s := newTestServer(t, st, 4, 5000)
	sess, err := st.OpenRun("alpha", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	rn := document(t, sess)
	rng := rand.New(rand.NewSource(23))
	n := rn.NumVertices()
	const pairs = 3000 // above the 1024 fan-out threshold
	ps := make([][2]int, pairs)
	var sb strings.Builder
	sb.WriteString(`{"run":"alpha","pairs":[`)
	for i := range ps {
		ps[i] = [2]int{rng.Intn(n), rng.Intn(n)}
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", ps[i][0], ps[i][1])
	}
	sb.WriteString(`]}`)
	var batch struct {
		Count   int    `json:"count"`
		Results []bool `json:"results"`
	}
	if rec := do(t, s, "POST", "/batch", sb.String(), &batch); rec.Code != 200 {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	if batch.Count != pairs || len(batch.Results) != pairs {
		t.Fatalf("count %d with %d results, want %d", batch.Count, len(batch.Results), pairs)
	}
	for i, p := range ps {
		var one struct {
			Reachable bool `json:"reachable"`
		}
		target := fmt.Sprintf("/reachable?run=alpha&from=%d&to=%d", p[0], p[1])
		if rec := do(t, s, "GET", target, "", &one); rec.Code != 200 {
			t.Fatalf("%s: %d %s", target, rec.Code, rec.Body)
		}
		if batch.Results[i] != one.Reachable {
			t.Fatalf("pair %d %v: batch %v, one at a time %v", i, p, batch.Results[i], one.Reachable)
		}
	}
}

// TestRunDetailSnapshotInfo checks /runs?run=R reports which snapshot
// codec backs the stored labels.
func TestRunDetailSnapshotInfo(t *testing.T) {
	_, st := newTestStore(t)
	s := newTestServer(t, st, 4, 100)
	var detail struct {
		SnapshotVersion string `json:"snapshot_version"`
		SnapshotBytes   int    `json:"snapshot_bytes"`
	}
	do(t, s, "GET", "/runs?run=alpha", "", &detail)
	if detail.SnapshotVersion != "SKL2" || detail.SnapshotBytes <= 0 {
		t.Fatalf("snapshot info = %+v, want SKL2 with positive size", detail)
	}
}

// TestVertexRefEquivalence pins that /reachable and /batch resolve the
// same reference forms identically (shared resolver), including the
// sign-tolerant numeric fallback strconv.Atoi used to provide.
func TestVertexRefEquivalence(t *testing.T) {
	_, st := newTestStore(t)
	s := newTestServer(t, st, 4, 100)
	for _, ref := range []string{"a1", "12", "+12", "007", "-3", "zz9", ""} {
		var single struct {
			Reachable *bool `json:"reachable"`
		}
		recG := do(t, s, "GET", "/reachable?run=alpha&from="+url.QueryEscape(ref)+"&to=0", "", &single)
		body, _ := json.Marshal(map[string]any{"run": "alpha", "pairs": [][2]string{{ref, "0"}}})
		recB := do(t, s, "POST", "/batch", string(body), nil)
		okG := recG.Code == 200
		okB := recB.Code == 200
		if ref == "" {
			// GET reports a missing parameter (400); /batch carries an
			// explicit empty string (404). Both reject; codes differ.
			okG = recG.Code == 400
			okB = recB.Code == 404
			if !okG || !okB {
				t.Errorf("empty ref: GET %d, batch %d", recG.Code, recB.Code)
			}
			continue
		}
		if okG != okB {
			t.Errorf("ref %q: GET /reachable %d but /batch %d — endpoints resolve differently", ref, recG.Code, recB.Code)
		}
	}
}

// TestServedCounters pins the per-endpoint served counters /healthz
// exposes for the load harness: admitted requests increment exactly one
// endpoint counter, and admission rejections increment none.
func TestServedCounters(t *testing.T) {
	_, st := newTestStore(t)
	defer st.Close()
	s := newTestServer(t, st, 4, 64)

	do(t, s, http.MethodGet, "/reachable?run=alpha&from=0&to=1", "", nil)
	do(t, s, http.MethodGet, "/reachable?run=alpha&from=1&to=0", "", nil)
	do(t, s, http.MethodPost, "/batch", `{"run":"alpha","pairs":[[0,1]]}`, nil)
	do(t, s, http.MethodGet, "/runs", "", nil)
	do(t, s, http.MethodGet, "/specs", "", nil)
	do(t, s, http.MethodGet, "/lineage?run=alpha&vertex=0&dir=down", "", nil)
	// A rejected method still counts: the counter tracks dispatch, not
	// success.
	do(t, s, http.MethodDelete, "/runs/alpha", "", nil)      // 403: ingest off
	do(t, s, http.MethodGet, "/runs/alpha", "", nil)         // status endpoint
	do(t, s, http.MethodPost, "/runs/alpha/events", "", nil) // 403: stream off
	do(t, s, http.MethodPost, "/runs/alpha/finish", "", nil) // 403: stream off
	do(t, s, http.MethodPost, "/rpq", `{"run":"alpha","from":"0","to":"1","pattern":".*"}`, nil)
	do(t, s, http.MethodPost, "/rpq", `{"run":"alpha","from":"0","to":"1","pattern":"((("}`, nil) // 400 still counts
	// A request counts under the route the mux matched: one the mux
	// answers itself (no route for the method, or none for the path) is
	// "other", and HEAD is served by the GET route.
	for _, c := range []struct {
		method, target string
		code           int
	}{
		{http.MethodGet, "/runs/alpha/events", http.StatusMethodNotAllowed},
		{http.MethodPut, "/runs/alpha/finish", http.StatusMethodNotAllowed},
		{http.MethodPatch, "/runs/alpha", http.StatusMethodNotAllowed},
		{http.MethodGet, "/nope", http.StatusNotFound},
		{http.MethodHead, "/runs/alpha", http.StatusOK},
	} {
		if rec := do(t, s, c.method, c.target, "", nil); rec.Code != c.code {
			t.Errorf("%s %s = %d, want %d", c.method, c.target, rec.Code, c.code)
		}
	}

	var health struct {
		Served map[string]int64 `json:"served"`
	}
	do(t, s, http.MethodGet, "/healthz", "", &health)
	want := map[string]int64{
		"reachable": 2, "batch": 1, "runs": 1, "specs": 1,
		"lineage": 1, "delete": 1, "healthz": 1, "put": 0, "other": 4,
		"status": 2, "events": 1, "finish": 1, "rpq": 2,
	}
	if len(health.Served) != len(want) {
		t.Errorf("served has keys %v, want exactly those of %v", health.Served, want)
	}
	for k, v := range want {
		if got, ok := health.Served[k]; !ok || got != v {
			t.Errorf("served[%s] = %d (present %v), want %d (all: %v)", k, got, ok, v, health.Served)
		}
	}
	// Two routes sharing a key would merge their counts silently.
	keys := make(map[string]bool)
	for i := range s.routes {
		if k := s.routes[i].key; keys[k] || k == "other" {
			t.Errorf("route %q reuses served key %q", s.routes[i].pattern, k)
		}
		keys[s.routes[i].key] = true
	}
	if got := s.Served()["reachable"]; got != 2 {
		t.Errorf("Served()[reachable] = %d, want 2", got)
	}
}

// document is store.Session.Document for tests: the decoded run, or a
// fatal error.
func document(t testing.TB, sess *store.Session) *run.Run {
	t.Helper()
	r, _, err := sess.Document()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFailMapping pins s.fail, the one error-to-status mapping: each
// error class answers its status however deeply it is wrapped, an
// oversized body outranks the bad-request wrapper it surfaces through,
// Retry-After accompanies exactly the 503s, and every body is
// {"error": message}.
func TestFailMapping(t *testing.T) {
	s, _ := newStreamServer(t, Config{})
	tooLarge := &http.MaxBytesError{Limit: 64}
	for _, c := range []struct {
		name string
		err  error
		want int
		msg  string // expected message; "" means err.Error()
	}{
		{"max bytes", tooLarge, 413, "request body exceeds 64 bytes"},
		{"max bytes wrapped", fmt.Errorf("reading: %w", tooLarge), 413, "request body exceeds 64 bytes"},
		{"max bytes under bad request", badRequestf("malformed event log: %w", tooLarge), 413, "request body exceeds 64 bytes"},
		{"batch too large", fmt.Errorf("batch exceeds limit of %d pairs: %w", 8, errBatchTooLarge), 413, ""},
		{"bad request", badRequestf("missing 'run' parameter"), 400, ""},
		{"bad request wrapped", fmt.Errorf("evaluating path query: %w", badRequestf("bad pattern")), 400, ""},
		{"disabled", fmt.Errorf("PUT /runs/{name} is %w on this server", errDisabled), 403, ""},
		{"not found", notFound(`unknown run "x"`), 404, ""},
		{"not exist wrapped", fmt.Errorf("loading run %q: %w", "x", fs.ErrNotExist), 404, ""},
		{"incomplete", &live.IncompleteError{Err: errors.New("fork site without copies")}, 409, ""},
		{"incomplete wrapped", fmt.Errorf("finishing run %q: %w", "x", &live.IncompleteError{Err: errors.New("x")}), 409, ""},
		{"finished", fmt.Errorf("run %q is %w", "x", errFinished), 409, ""},
		{"transient", store.Transient(errors.New("disk busy")), 503, ""},
		{"transient wrapped", fmt.Errorf("storing run %q: %w", "x", store.Transient(errors.New("disk busy"))), 503, ""},
		{"degraded", degraded("run listing needs the backend"), 503, ""},
		{"degraded wrapped", fmt.Errorf("loading run %q: %w", "x", degraded("not resident")), 503, ""},
		{"write failed transient", writeFailed("storing run %q: %w", "x", store.Transient(errors.New("disk busy"))), 503, ""},
		{"write failed not exist", writeFailed("storing run %q: %w", "x", fs.ErrNotExist), 500, ""},
		{"write failed incomplete", writeFailed("finishing run %q: %w", "x", &live.IncompleteError{Err: errors.New("x")}), 409, ""},
		{"internal", errors.New("snapshot checksum mismatch"), 500, ""},
		{"internal wrapped", fmt.Errorf("loading run %q: %w", "x", errors.New("corrupt")), 500, ""},
	} {
		rec := httptest.NewRecorder()
		s.fail(rec, c.err)
		if rec.Code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, rec.Code, c.want)
		}
		if got := rec.Header().Get("Retry-After"); (got != "") != (c.want == 503) {
			t.Errorf("%s: Retry-After %q on a %d", c.name, got, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
		var body map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || len(body) != 1 {
			t.Errorf("%s: body %q is not {\"error\": ...} (%v)", c.name, rec.Body.String(), err)
			continue
		}
		want := c.msg
		if want == "" {
			want = c.err.Error()
		}
		if body["error"] != want {
			t.Errorf("%s: error %q, want %q", c.name, body["error"], want)
		}
	}
}
