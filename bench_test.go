// Benchmarks mirroring the paper's evaluation, one per table/figure (see
// DESIGN.md's per-experiment index). The provbench command produces the
// full sweeps; these testing.B benches exercise each measurement kernel
// at a representative size so `go test -bench=.` validates every code
// path and reports per-operation costs.
package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/events"
	"repro/internal/live"
	"repro/internal/loadgen"
	"repro/internal/rpq"
	"repro/internal/run"
	"repro/internal/store"
)

// benchRun builds a deterministic run of roughly the given size over the
// QBLAST stand-in.
func benchRun(b testing.TB, target int) *repro.Run {
	b.Helper()
	s, err := repro.StandInSpec("QBLAST", 1)
	if err != nil {
		b.Fatal(err)
	}
	r, _ := repro.GenerateRun(s, rand.New(rand.NewSource(int64(target))), target)
	return r
}

// BenchmarkTable1SpecLabel labels each of the six Table-1 specifications
// with every skeleton scheme (Table 1 + Section 7).
func BenchmarkTable1SpecLabel(b *testing.B) {
	for _, name := range []string{"EBI", "PubMed", "QBLAST", "BioAID", "ProScan", "ProDisc"} {
		s, err := repro.StandInSpec(name, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.TCM.Build(s.Graph); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12LabelLength measures the full labeling pipeline whose
// output Figure 12 reports (label bits are reported as metrics).
func BenchmarkFig12LabelLength(b *testing.B) {
	r := benchRun(b, 10_000)
	skel, err := repro.TCM.Build(r.Spec.Graph)
	if err != nil {
		b.Fatal(err)
	}
	var maxBits int
	var avgBits float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := repro.LabelWithSkeleton(r, skel)
		if err != nil {
			b.Fatal(err)
		}
		maxBits = l.MaxLabelBits()
		avgBits = l.AvgLabelBits()
	}
	b.ReportMetric(float64(maxBits), "maxbits")
	b.ReportMetric(avgBits, "avgbits")
}

// BenchmarkFig13Construction measures construction time in both settings
// of Figure 13, across run sizes (linear scaling).
func BenchmarkFig13Construction(b *testing.B) {
	s, err := repro.StandInSpec("QBLAST", 1)
	if err != nil {
		b.Fatal(err)
	}
	skel, err := repro.TCM.Build(s.Graph)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []int{1000, 4000, 16000} {
		r, truth := repro.GenerateRun(s, rand.New(rand.NewSource(int64(size))), size)
		b.Run(fmt.Sprintf("default/n=%d", r.NumVertices()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.LabelWithSkeleton(r, skel); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("withplan/n=%d", r.NumVertices()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.LabelWithPlan(r, truth, skel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig14Query measures TCM+SKL query time (constant in run size).
func BenchmarkFig14Query(b *testing.B) {
	for _, size := range []int{1000, 16000} {
		r := benchRun(b, size)
		l, err := repro.LabelRun(r, repro.TCM)
		if err != nil {
			b.Fatal(err)
		}
		n := r.NumVertices()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := repro.VertexID(i % n)
				v := repro.VertexID((i * 31) % n)
				benchSink = l.Reachable(u, v)
			}
		})
	}
}

var benchSink bool

// BenchmarkFig16TCMDirect measures the polynomial cost of applying TCM
// directly to the run — the approach the paper shows does not scale.
func BenchmarkFig16TCMDirect(b *testing.B) {
	r := benchRun(b, 4000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Graph.TransitiveClosure(); !ok {
			b.Fatal("cyclic run")
		}
	}
}

// BenchmarkFig17Query compares the four schemes of Figure 17 at one size.
func BenchmarkFig17Query(b *testing.B) {
	r := benchRun(b, 8000)
	n := r.NumVertices()
	lt, err := repro.LabelRun(r, repro.TCM)
	if err != nil {
		b.Fatal(err)
	}
	lb, err := repro.LabelRun(r, repro.BFS)
	if err != nil {
		b.Fatal(err)
	}
	closure, _ := r.Graph.TransitiveClosure()
	b.Run("TCM+SKL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = lt.Reachable(repro.VertexID(i%n), repro.VertexID((i*31)%n))
		}
	})
	b.Run("BFS+SKL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = lb.Reachable(repro.VertexID(i%n), repro.VertexID((i*31)%n))
		}
	})
	b.Run("TCM-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = closure.Reachable(repro.VertexID(i%n), repro.VertexID((i*31)%n))
		}
	})
	b.Run("BFS-direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = r.Graph.ReachableBFS(repro.VertexID(i%n), repro.VertexID((i*31)%n))
		}
	})
}

// BenchmarkFig20QueryBySpecSize measures BFS+SKL query cost against the
// specification size (Figures 18-20's sweep).
func BenchmarkFig20QueryBySpecSize(b *testing.B) {
	for i, nG := range []int{50, 100, 200} {
		s, err := repro.SynthesizeSpec(rand.New(rand.NewSource(int64(i))), nG, 2*nG, 10, 4)
		if err != nil {
			b.Fatal(err)
		}
		r, _ := repro.GenerateRun(s, rand.New(rand.NewSource(9)), 8000)
		l, err := repro.LabelRun(r, repro.BFS)
		if err != nil {
			b.Fatal(err)
		}
		n := r.NumVertices()
		b.Run(fmt.Sprintf("nG=%d", nG), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = l.Reachable(repro.VertexID(i%n), repro.VertexID((i*31)%n))
			}
		})
	}
}

// BenchmarkAblationSpecSchemes queries under every skeleton scheme (A1).
func BenchmarkAblationSpecSchemes(b *testing.B) {
	r := benchRun(b, 8000)
	n := r.NumVertices()
	for _, scheme := range repro.SpecSchemes() {
		l, err := repro.LabelRun(r, scheme)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%T", scheme), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = l.Reachable(repro.VertexID(i%n), repro.VertexID((i*31)%n))
			}
		})
	}
}

// BenchmarkDataProvenance measures Section 6 data-dependency queries.
func BenchmarkDataProvenance(b *testing.B) {
	r := benchRun(b, 8000)
	rng := rand.New(rand.NewSource(3))
	ann := repro.RandomData(r, rng, 1.3, 0.4)
	l, err := repro.LabelRun(r, repro.TCM)
	if err != nil {
		b.Fatal(err)
	}
	dl, err := repro.LabelData(ann, l)
	if err != nil {
		b.Fatal(err)
	}
	k := dl.NumItems()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = dl.DependsOn(repro.DataItemID(i%k), repro.DataItemID((i*31)%k))
	}
}

// BenchmarkOnlineAppend measures Section 9 incremental labeling: one
// fork-copy start plus one module execution per op.
func BenchmarkOnlineAppend(b *testing.B) {
	s := repro.PaperSpec()
	skel, err := repro.TCM.Build(s.Graph)
	if err != nil {
		b.Fatal(err)
	}
	l := repro.NewOnline(s, skel)
	root := l.Root()
	var l2 int
	for i, sub := range s.Subgraphs {
		if sub.Kind.String() == "loop" && s.NameOf(sub.Source) == "e" {
			l2 = i + 1
		}
	}
	eOrig, _ := s.VertexOf("e")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := l.StartCopy(root, l2)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := l.AddExec(c, eOrig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerIngest measures the write path end to end — reading
// the body into a pooled decoder, its one decode there (which validates
// the run against the spec), plan construction, skeleton labeling, SKL2
// snapshot encode, the backend write of the body as received plus the
// snapshot, and session-cache refresh — as PUT /runs overwrites of one
// run name over the in-memory backend. This is the per-run cost of
// remote ingest through store.PutRunDocument; nothing on it copies or
// re-encodes the document.
func BenchmarkServerIngest(b *testing.B) {
	r := benchRun(b, 1000)
	st, err := repro.NewMemStore(r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{Store: st, EnableIngest: true})
	if err != nil {
		b.Fatal(err)
	}
	var doc bytes.Buffer
	if err := repro.WriteRunXML(&doc, r, nil, "bench"); err != nil {
		b.Fatal(err)
	}
	body := doc.Bytes()
	// Ingest then query once so the run is cache-resident: each measured
	// PUT then exercises the full overwrite path including the
	// invalidate-and-refresh of the live session.
	warm := httptest.NewRecorder()
	srv.ServeHTTP(warm, httptest.NewRequest("PUT", "/runs/r1", bytes.NewReader(body)))
	if warm.Code != 200 {
		b.Fatalf("warmup PUT: status %d: %s", warm.Code, warm.Body.String())
	}
	warm = httptest.NewRecorder()
	srv.ServeHTTP(warm, httptest.NewRequest("GET", "/runs?run=r1", nil))
	if warm.Code != 200 {
		b.Fatalf("warmup GET: status %d", warm.Code)
	}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("PUT", "/runs/r1", bytes.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServerDelete measures the run-retirement path end to end —
// per-name write-lock acquisition, backend blob deletion, and session
// invalidation with the generation fence — as DELETE /runs of a
// cache-resident run over the in-memory backend. Each iteration re-PUTs
// and re-queries the run off the clock, so the measured op is the pure
// delete-side cost retention sweeps pay per evicted run.
func BenchmarkServerDelete(b *testing.B) {
	r := benchRun(b, 1000)
	st, err := repro.NewMemStore(r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{Store: st, EnableIngest: true})
	if err != nil {
		b.Fatal(err)
	}
	var doc bytes.Buffer
	if err := repro.WriteRunXML(&doc, r, nil, "bench"); err != nil {
		b.Fatal(err)
	}
	body := doc.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("PUT", "/runs/r1", bytes.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("PUT: status %d: %s", rec.Code, rec.Body.String())
		}
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/runs?run=r1", nil))
		if rec.Code != 200 {
			b.Fatalf("warm GET: status %d", rec.Code)
		}
		b.StartTimer()
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/runs/r1", nil))
		if rec.Code != 200 {
			b.Fatalf("DELETE: status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// BenchmarkServerAppendEvents measures the streaming write path end to
// end — event-log parse, append-protocol validation, durable event-log
// append, and incremental skeleton labeling — as POST /runs/{name}/events
// batches of 64 engine events against the in-memory backend. This is
// the per-batch cost of live ingest, the streaming counterpart of
// BenchmarkServerIngest. The event log is the stream's only durable
// write, so every iteration measures the same work. Each batch's request
// and the ResponseWriter are reused, as in BenchmarkServerReachable, so
// every allocation it reports is the server's.
func BenchmarkServerAppendEvents(b *testing.B) {
	app := newAppendBench(b)
	b.SetBytes(app.bytes / int64(len(app.reqs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.next(b)
	}
}

// TestAppendEventsAllocs pins what a warm 64-event append allocates
// through ServeHTTP, request and writer reused: at most 12 allocations
// a batch, whatever the batch's size.
func TestAppendEventsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	app := newAppendBench(t)
	for range app.reqs {
		app.next(t) // one whole stream first: pools and routes warm
	}
	// AllocsPerRun's own first call restarts the stream; the counted
	// calls are the rest of that stream, the growth of its columns
	// included.
	if allocs := testing.AllocsPerRun(len(app.reqs)-1, func() { app.next(t) }); allocs > 12 {
		t.Fatalf("a 64-event append allocates %v times, want at most 12", allocs)
	}
}

// appendBench streams a 1,000-vertex QBLAST stand-in run's event log
// into a server in 64-event POST /runs/r1/events requests, one request
// and one body reader per batch and one ResponseWriter, all reused.
type appendBench struct {
	srv    http.Handler
	reqs   []*http.Request
	bodies []*reuseBody
	logs   [][]byte
	bytes  int64
	w      *reuseWriter
	step   int
}

// reuseBody is a request body that can be read again after Reset.
type reuseBody struct{ bytes.Reader }

func (*reuseBody) Close() error { return nil }

func newAppendBench(tb testing.TB) *appendBench {
	tb.Helper()
	s, err := repro.StandInSpec("QBLAST", 1)
	if err != nil {
		tb.Fatal(err)
	}
	r, p := repro.GenerateRun(s, rand.New(rand.NewSource(1000)), 1000)
	evs := repro.EmitEvents(r, p)
	st, err := repro.NewMemStore(s, "bench")
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{Store: st, EnableStream: true})
	if err != nil {
		tb.Fatal(err)
	}
	app := &appendBench{srv: srv, w: &reuseWriter{h: http.Header{}}}
	const per = 64
	for i := 0; i < len(evs); i += per {
		var buf bytes.Buffer
		if err := repro.WriteEventLog(&buf, evs[i:min(i+per, len(evs))]); err != nil {
			tb.Fatal(err)
		}
		body := new(reuseBody)
		app.logs = append(app.logs, buf.Bytes())
		app.bodies = append(app.bodies, body)
		app.reqs = append(app.reqs, httptest.NewRequest("POST", fmt.Sprintf("/runs/r1/events?offset=%d", i), body))
		app.bytes += int64(buf.Len())
	}
	return app
}

// next sends the next batch. When the log is exhausted it first
// retires the live run off the clock and restarts the stream from
// offset zero.
func (app *appendBench) next(tb testing.TB) {
	b, _ := tb.(*testing.B)
	if app.step == len(app.reqs) {
		if b != nil {
			b.StopTimer()
		}
		rec := httptest.NewRecorder()
		app.srv.ServeHTTP(rec, httptest.NewRequest("DELETE", "/runs/r1", nil))
		if rec.Code != 200 {
			tb.Fatalf("DELETE: status %d: %s", rec.Code, rec.Body.String())
		}
		app.step = 0
		if b != nil {
			b.StartTimer()
		}
	}
	req, body := app.reqs[app.step], app.bodies[app.step]
	body.Reset(app.logs[app.step])
	req.Body = body // the handler wraps the body it was given
	w := app.w
	clear(w.h)
	w.code, w.body = 0, w.body[:0]
	app.srv.ServeHTTP(w, req)
	if w.code != http.StatusOK {
		tb.Fatalf("append batch %d: status %d: %s", app.step, w.code, w.body)
	}
	app.step++
}

// BenchmarkServerBatchReachable measures the query server's batched
// reachability path end to end — JSON decode, cache-hit session lookup,
// the constant-time Reachable per pair, JSON encode — as the serving
// layer's perf baseline, over the fs store backend. Per-pair cost should
// approach the raw Labeling.Reachable cost as the batch grows.
func BenchmarkServerBatchReachable(b *testing.B) {
	r := benchRun(b, 5000)
	st, err := repro.CreateStore(b.TempDir(), r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	benchServerBatch(b, st, r)
}

// BenchmarkServerBatchReachableMem is the same serving path over the
// in-memory store backend; on cache hits the two must be
// indistinguishable (the session cache means neither touches its
// backend), so a gap here flags a regression in the store layer.
func BenchmarkServerBatchReachableMem(b *testing.B) {
	r := benchRun(b, 5000)
	st, err := repro.NewMemStore(r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	benchServerBatch(b, st, r)
}

func benchServerBatch(b *testing.B, st *repro.Store, r *repro.Run) {
	b.Helper()
	if err := st.PutRun("r1", r, nil, repro.TCM); err != nil {
		b.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	n := r.NumVertices()
	type row struct {
		name string
		body []byte
	}
	var rows []row
	for _, size := range []int{1, 64, 1024} {
		pairs := make([][2]string, size)
		for i := range pairs {
			pairs[i] = [2]string{fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n))}
		}
		req := map[string]any{"run": "r1", "pairs": pairs}
		body, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		rows = append(rows, row{fmt.Sprintf("pairs=%d", size), body})
		if size == 1024 {
			// The same pairs indented: a body off json.Marshal's
			// layout, which the server hands to encoding/json.
			if body, err = json.MarshalIndent(req, "", "  "); err != nil {
				b.Fatal(err)
			}
			rows = append(rows, row{"pairs=1024-indented", body})
		}
	}
	for _, row := range rows {
		body := row.body
		b.Run(row.name, func(b *testing.B) {
			// Warm the session cache so the loop measures pure cache-hit
			// serving (zero disk I/O).
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", bytes.NewReader(body)))
			if rec.Code != 200 {
				b.Fatalf("warmup: status %d body %s", rec.Code, rec.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", bytes.NewReader(body)))
				if rec.Code != 200 {
					b.Fatalf("status %d", rec.Code)
				}
			}
		})
	}
}

// BenchmarkServerReachable measures the per-request front of a query:
// one cache-hit GET /reachable by occurrence names on a 5,000-vertex
// run, sent through ServeHTTP as a load generator sends it, with the
// request reused and a ResponseWriter whose header map and body buffer
// are reused, so every allocation it reports is the server's.
func BenchmarkServerReachable(b *testing.B) {
	r := benchRun(b, 5000)
	st, err := repro.NewMemStore(r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := st.PutRun("r1", r, nil, repro.TCM); err != nil {
		b.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	q := url.Values{"run": {"r1"}, "from": {r.NameOf(0)}, "to": {r.NameOf(repro.VertexID(r.NumVertices() - 1))}}
	req := httptest.NewRequest("GET", "/reachable?"+q.Encode(), nil)
	w := &reuseWriter{h: http.Header{}}
	serve := func() {
		clear(w.h)
		w.code, w.body = 0, w.body[:0]
		srv.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d: %s", w.code, w.body)
		}
	}
	serve() // load the session: the loop measures cache hits only
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

// reuseWriter is an http.ResponseWriter kept across requests.
type reuseWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *reuseWriter) Header() http.Header { return w.h }

func (w *reuseWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *reuseWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

// BenchmarkServerRPQ measures the regular-path-query serving path end
// to end — JSON decode, pattern compile, lazy DFA determinization, and
// the label-pruned product-graph walk — as POST /rpq over a
// cache-resident run on the in-memory backend. Three pattern shapes
// cover the cost spectrum: a bare wildcard star (pruning does all the
// work), an anchored middle label (typical lineage probe), and an
// alternation under a star (forces subset construction).
func BenchmarkServerRPQ(b *testing.B) {
	r := benchRun(b, 5000)
	st, err := repro.NewMemStore(r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := st.PutRun("r1", r, nil, repro.TCM); err != nil {
		b.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	n := r.NumVertices()
	mid := string(r.Spec.NameOf(r.Origin[n/2]))
	for _, bc := range []struct{ name, pattern string }{
		{"wildcard", ".*"},
		{"anchored", fmt.Sprintf(".* %s .*", mid)},
		{"altstar", fmt.Sprintf("(%s|.)* %s", mid, mid)},
	} {
		rng := rand.New(rand.NewSource(11))
		const pool = 64
		bodies := make([][]byte, pool)
		for i := range bodies {
			body, err := json.Marshal(map[string]string{
				"run":     "r1",
				"from":    fmt.Sprint(rng.Intn(n)),
				"to":      fmt.Sprint(rng.Intn(n)),
				"pattern": bc.pattern,
			})
			if err != nil {
				b.Fatal(err)
			}
			bodies[i] = body
		}
		b.Run(bc.name, func(b *testing.B) {
			// Warm the session cache so the loop measures pure
			// cache-hit serving (zero disk I/O).
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest("POST", "/rpq", bytes.NewReader(bodies[0])))
			if rec.Code != 200 {
				b.Fatalf("warmup: status %d body %s", rec.Code, rec.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest("POST", "/rpq", bytes.NewReader(bodies[i%pool])))
				if rec.Code != 200 {
					b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// BenchmarkRPQStages splits BenchmarkServerRPQ's evaluation into its two
// stages over a resident 5,000-vertex QBLAST stand-in run, with
// patterns drawn from loadgen.RPQPatternPool as the load harnesses draw
// them: compile (rpq.Compile against the spec's module index) and walk
// (NewMatcher + Eval with the run's labels as the pruning oracle, the
// lazy determinization included). The walk queries are 64 (pattern,
// pair) combinations whose vertices reach one another, so each one
// walks instead of being refused by the labels in O(1).
func BenchmarkRPQStages(b *testing.B) {
	r := benchRun(b, 5000)
	l, err := repro.LabelRun(r, repro.TCM)
	if err != nil {
		b.Fatal(err)
	}
	lookup := func(name string) (repro.VertexID, bool) {
		return r.Spec.VertexOf(repro.ModuleName(name))
	}
	patterns := loadgen.RPQPatternPool(r.Spec, 8, 29)
	type query struct {
		prog *rpq.Prog
		u, v repro.VertexID
	}
	rng := rand.New(rand.NewSource(29))
	n := r.NumVertices()
	var queries []query
	for len(queries) < 64 {
		u, v := repro.VertexID(rng.Intn(n)), repro.VertexID(rng.Intn(n))
		if u == v || !l.Reachable(u, v) {
			continue
		}
		prog, err := rpq.Compile(patterns[len(queries)%len(patterns)], lookup)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rpq.NewMatcher(prog, 0).Eval(r.Graph, r.Origin, l.Reachable, u, v); err != nil {
			continue // over the state budget: the server refuses it
		}
		queries = append(queries, query{prog, u, v})
	}
	b.Run("compile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rpq.Compile(patterns[i%len(patterns)], lookup); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			if _, err := rpq.NewMatcher(q.prog, 0).Eval(r.Graph, r.Origin, l.Reachable, q.u, q.v); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServerLineage measures GET /lineage end to end over a
// cache-resident 5000-vertex run on the in-memory backend: vertex
// resolution, the label-only cone and the response encode. The 64
// precomputed queries alternate up and down over random vertices, so
// cone sizes range from empty to most of the run.
func BenchmarkServerLineage(b *testing.B) {
	r := benchRun(b, 5000)
	st, err := repro.NewMemStore(r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := st.PutRun("r1", r, nil, repro.TCM); err != nil {
		b.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	queries := lineageQueries(r)
	targets := make([]string, len(queries))
	for i, q := range queries {
		dir := "up"
		if !q.up {
			dir = "down"
		}
		targets[i] = fmt.Sprintf("/lineage?run=r1&vertex=%d&dir=%s", q.v, dir)
	}
	// Warm the session cache so the loop measures pure cache-hit serving.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", targets[0], nil))
	if rec.Code != 200 {
		b.Fatalf("warmup: status %d body %s", rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", targets[i%len(targets)], nil))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
}

// lineageQuery is one /lineage source vertex and direction.
type lineageQuery struct {
	v  repro.VertexID
	up bool
}

// lineageQueries returns BenchmarkServerLineage's 64 queries over r:
// random vertices, alternating up and down.
func lineageQueries(r *repro.Run) []lineageQuery {
	rng := rand.New(rand.NewSource(13))
	queries := make([]lineageQuery, 64)
	for i := range queries {
		queries[i] = lineageQuery{repro.VertexID(rng.Intn(r.NumVertices())), i%2 == 0}
	}
	return queries
}

// BenchmarkLineageStages splits BenchmarkServerLineage into its two
// stages over the same run and queries: the label-only cone
// (core.Labeling.AppendCone) and the encode of the cone's vertex names
// into a response body, as jsonWriter.names writes them for module
// names that need no escaping. The two sum to ServerLineage minus
// vertex resolution and HTTP plumbing.
func BenchmarkLineageStages(b *testing.B) {
	r := benchRun(b, 5000)
	l, err := repro.LabelRun(r, repro.TCM)
	if err != nil {
		b.Fatal(err)
	}
	nm := run.NewNamerFromOrigins(r.Spec, l.Origins())
	queries := lineageQueries(r)
	cones := make([][]repro.VertexID, len(queries))
	for i, q := range queries {
		cones[i] = l.AppendCone(nil, q.v, q.up)
	}
	b.Run("cone", func(b *testing.B) {
		b.ReportAllocs()
		var dst []repro.VertexID
		for i := 0; i < b.N; i++ {
			q := queries[i%len(queries)]
			dst = l.AppendCone(dst[:0], q.v, q.up)
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		var body []byte
		for i := 0; i < b.N; i++ {
			body = append(nm.AppendQuotedNames(append(body[:0], '['), cones[i%len(cones)]), ']')
		}
	})
}

// BenchmarkServerColdRead measures a session-cache miss end to end as
// GET /reachable: backend read of both blobs, snapshot decode and bind,
// and the namer built over the snapshot's origin column. Two
// 1000-vertex runs alternate through a one-entry cache over the
// in-memory backend, so every query misses; the run document is
// borrowed from the backend but never decoded, because reachability
// needs only labels.
func BenchmarkServerColdRead(b *testing.B) {
	r := benchRun(b, 1000)
	st, err := repro.NewMemStore(r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	other, _ := repro.GenerateRun(r.Spec, rand.New(rand.NewSource(2)), 1000)
	if err := st.PutRun("r1", r, nil, repro.TCM); err != nil {
		b.Fatal(err)
	}
	if err := st.PutRun("r2", other, nil, repro.TCM); err != nil {
		b.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{Store: st, CacheSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	targets := [2]string{
		fmt.Sprintf("/reachable?run=r1&from=0&to=%d", r.NumVertices()-1),
		fmt.Sprintf("/reachable?run=r2&from=0&to=%d", other.NumVertices()-1),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", targets[i%2], nil))
		if rec.Code != 200 {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.StopTimer()
	if stats := srv.Stats(); stats.Hits != 0 {
		b.Fatalf("%d cache hits; every query must miss", stats.Hits)
	}
}

// BenchmarkColdLoad splits BenchmarkServerColdRead's cache miss into
// its stages, each timed alone over one stored 1000-vertex run on the
// in-memory backend: the backend read of both blobs (document and label
// snapshot) as OpenRun does it, the snapshot decode (one block-wise
// pass that checks the labels and indexes the context spans), binding
// it to the cached skeleton labeling, and the vertex namer built in two
// counting passes over the labels' origin column, which it shares
// rather than copies. The stages' sum approximates ServerColdRead
// minus HTTP and cache plumbing, so a cold-miss change names the stage
// that moved.
func BenchmarkColdLoad(b *testing.B) {
	r := benchRun(b, 1000)
	st, err := repro.NewMemStore(r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := st.PutRun("r1", r, nil, repro.TCM); err != nil {
		b.Fatal(err)
	}
	skel, err := st.Skeleton(repro.TCM)
	if err != nil {
		b.Fatal(err)
	}
	read := func() (doc, labels []byte, err error) {
		rf, err := st.Backend().ReadRun("r1")
		if err != nil {
			return nil, nil, err
		}
		if doc, err = store.ReadBlob(rf); err != nil {
			return nil, nil, err
		}
		lf, err := st.Backend().ReadLabels("r1")
		if err != nil {
			return nil, nil, err
		}
		labels, err = store.ReadBlob(lf)
		return doc, labels, err
	}
	_, labels, err := read()
	if err != nil {
		b.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(labels)
	if err != nil {
		b.Fatal(err)
	}
	l, err := snap.Bind(skel)
	if err != nil {
		b.Fatal(err)
	}
	stages := []struct {
		name string
		fn   func() error
	}{
		{"read", func() error {
			_, _, err := read()
			return err
		}},
		{"snapshot", func() error {
			_, err := core.DecodeSnapshot(labels)
			return err
		}},
		{"bind", func() error {
			_, err := snap.Bind(skel)
			return err
		}},
		{"namer", func() error {
			run.NewNamerFromOrigins(r.Spec, l.Origins())
			return nil
		}},
	}
	for _, stage := range stages {
		b.Run(stage.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := stage.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConstructPlan isolates the Section 5 plan-extraction kernel.
func BenchmarkConstructPlan(b *testing.B) {
	for _, size := range []int{1000, 16000} {
		r := benchRun(b, size)
		b.Run(fmt.Sprintf("n=%d", r.NumVertices()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := repro.ConstructPlan(r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// TestConstructPlanAllocs pins plan construction at the 3 allocations
// of the Plan it returns, at both of BenchmarkConstructPlan's sizes.
// testing.AllocsPerRun runs at GOMAXPROCS 1, so every construction
// after its warm-up takes the constructor the previous one returned to
// sync.Pool's one per-P private slot. The benchmark's rows run at the
// process's GOMAXPROCS and read 3 or 9 allocs at n=16245 from one
// process to the next, as the pool's private slot of the P that runs
// the next construction does or does not hold a warm constructor.
func TestConstructPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	for _, size := range []int{1000, 16000} {
		r := benchRun(t, size)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := repro.ConstructPlan(r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 3 {
			t.Errorf("n=%d: plan construction allocates %v times, want 3", r.NumVertices(), allocs)
		}
	}
}

// TestLabelRunAllocs pins labeling over a given plan at 5 allocations,
// at both of BenchmarkConstructPlan's sizes: the Labeling, the one
// scratch position per plan node that Algorithm 1's three traversals
// share, the snapshot's context column and row table (one block), its
// origin column, and its span index. The traversals write each
// position where the snapshot reads it, so the count does not grow
// with the run.
func TestLabelRunAllocs(t *testing.T) {
	for _, size := range []int{1000, 16000} {
		r := benchRun(t, size)
		skel, err := repro.TCM.Build(r.Spec.Graph)
		if err != nil {
			t.Fatal(err)
		}
		p, err := repro.ConstructPlan(r)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := repro.LabelWithPlan(r, p, skel); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 5 {
			t.Errorf("n=%d: labeling allocates %v times, want at most 5", r.NumVertices(), allocs)
		}
	}
}

// BenchmarkIngestStages splits the write path into its stages, each
// timed alone over the same run. A PUT is decode (read into a pooled
// decoder, the document matched in one step against the layout
// AppendRun writes, and its one run.Validate), plan construction (Section 5, on pooled scratch),
// orders and labels over that plan, SKL2 snapshot encode, and the
// backend write of the received document and the snapshot to the
// in-memory store; those stages' sum approximates BenchmarkServerIngest
// minus HTTP and cache plumbing, so an ingest change names the stage
// that moved. The validate and encode rows are the costs only an
// in-memory run pays (store.PutRun and a stream's /finish): with no
// bytes received, it is validated on its own and stored in its
// canonical encoding. The decode-crlf and decode-data rows decode the
// same run laid out otherwise (CRLF line endings; one data item per
// edge on average), which the one-step match still takes; decode-foreign
// decodes it with an XML declaration and single-quoted attributes,
// which the match refuses at its first byte and encoding/xml decodes
// instead: the price of a body from another writer. The decode,
// validate and plan rows allocate only
// what they return on warm scratch, and a decoder fresh from the pool
// sizes its scratch from the document in one step, so their allocs/op
// do not depend on how often the pool comes back empty.
func BenchmarkIngestStages(b *testing.B) {
	r := benchRun(b, 1000)
	st, err := repro.NewMemStore(r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	var doc bytes.Buffer
	if err := repro.WriteRunXML(&doc, r, nil, "bench"); err != nil {
		b.Fatal(err)
	}
	body := doc.Bytes()
	// Three documents off the exact bytes AppendRun writes: CRLF line
	// endings and data items stay inside the layout the one-step match
	// takes, a declaration and single quotes do not.
	crlf := bytes.ReplaceAll(body, []byte("\n"), []byte("\r\n"))
	foreign := append([]byte(`<?xml version="1.0" encoding="UTF-8"?>`+"\n"), bytes.ReplaceAll(body, []byte(`"`), []byte(`'`))...)
	var withData bytes.Buffer
	if err := repro.WriteRunXML(&withData, r, repro.RandomData(r, rand.New(rand.NewSource(1)), 1, 0.1), "bench"); err != nil {
		b.Fatal(err)
	}
	skel, err := repro.TCM.Build(r.Spec.Graph)
	if err != nil {
		b.Fatal(err)
	}
	p, err := repro.ConstructPlan(r)
	if err != nil {
		b.Fatal(err)
	}
	l, err := repro.LabelWithPlan(r, p, skel)
	if err != nil {
		b.Fatal(err)
	}
	var snap bytes.Buffer
	if _, err := l.WriteTo(&snap); err != nil {
		b.Fatal(err)
	}
	stages := []struct {
		name string
		fn   func() error
	}{
		{"decode", func() error {
			_, _, err := repro.ReadRunXML(bytes.NewReader(body), r.Spec)
			return err
		}},
		{"decode-crlf", func() error {
			_, _, err := repro.ReadRunXML(bytes.NewReader(crlf), r.Spec)
			return err
		}},
		{"decode-data", func() error {
			_, _, err := repro.ReadRunXML(bytes.NewReader(withData.Bytes()), r.Spec)
			return err
		}},
		{"decode-foreign", func() error {
			_, _, err := repro.ReadRunXML(bytes.NewReader(foreign), r.Spec)
			return err
		}},
		{"validate", r.Validate},
		{"plan", func() error {
			_, err := repro.ConstructPlan(r)
			return err
		}},
		{"label", func() error {
			_, err := repro.LabelWithPlan(r, p, skel)
			return err
		}},
		{"snapshot", func() error {
			var buf bytes.Buffer
			_, err := l.WriteTo(&buf)
			return err
		}},
		{"encode", func() error {
			var buf bytes.Buffer
			return repro.WriteRunXML(&buf, r, nil, "bench")
		}},
		{"write", func() error {
			return st.Backend().WriteRun("r1", body, snap.Bytes())
		}},
	}
	for _, stage := range stages {
		b.Run(stage.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := stage.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendStages splits BenchmarkServerAppendEvents's 64-event
// batch into its stages: parsing the wire log (parse through ReadLog,
// parse-handler the way the append handler does), applying the events
// to an online labeler, and rendering plus durably appending the log
// bytes to the in-memory store. Batches walk one 1000-vertex run's event
// stream in order; when it is exhausted the labeler and the log are
// reset off the clock.
func BenchmarkAppendStages(b *testing.B) {
	s, err := repro.StandInSpec("QBLAST", 1)
	if err != nil {
		b.Fatal(err)
	}
	r, p := repro.GenerateRun(s, rand.New(rand.NewSource(1000)), 1000)
	evs := repro.EmitEvents(r, p)
	const per = 64
	var batches [][]repro.EngineEvent
	var logs [][]byte
	for i := 0; i < len(evs); i += per {
		batch := evs[i:min(i+per, len(evs))]
		var buf bytes.Buffer
		if err := repro.WriteEventLog(&buf, batch); err != nil {
			b.Fatal(err)
		}
		batches = append(batches, batch)
		logs = append(logs, buf.Bytes())
	}
	skel, err := repro.TCM.Build(s.Graph)
	if err != nil {
		b.Fatal(err)
	}
	st, err := repro.NewMemStore(s, "bench")
	if err != nil {
		b.Fatal(err)
	}

	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := repro.ReadEventLog(bytes.NewReader(logs[i%len(logs)])); err != nil {
				b.Fatal(err)
			}
		}
	})
	// parse-handler parses as the append handler does: the body read
	// whole into reused scratch, the events into a reused slice, module
	// names interned against the store's spec, under the server's
	// default limits.
	b.Run("parse-handler", func(b *testing.B) {
		var body bytes.Buffer
		var dst []repro.EngineEvent
		rd := new(bytes.Reader)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(logs[i%len(logs)])
			var err error
			if dst, err = events.ReadLogInto(dst[:0], &body, rd, st.Spec(), 4096, (16<<20)/8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("apply", func(b *testing.B) {
		var lab *repro.OnlineLabeler
		var copies []*repro.OnlineCopy
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			step := i % len(batches)
			if step == 0 {
				b.StopTimer()
				lab = repro.NewOnline(s, skel)
				copies = append(copies[:0], lab.Root())
				b.StartTimer()
			}
			for _, e := range batches[step] {
				if e.Kind == events.CopyStart {
					c, err := lab.StartCopy(copies[e.Parent], e.HNode)
					if err != nil {
						b.Fatal(err)
					}
					copies = append(copies, c)
					continue
				}
				orig, _ := s.VertexOf(e.Module)
				if _, err := lab.AddExec(copies[e.Copy], orig); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("log", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			step := i % len(batches)
			if step == 0 {
				b.StopTimer()
				if err := st.DeleteRunEvents("r1"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			var buf bytes.Buffer
			if err := repro.WriteEventLog(&buf, batches[step]); err != nil {
				b.Fatal(err)
			}
			if err := st.AppendRunEvents("r1", buf.Bytes()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// finishRun is the stream the finish benchmarks seal: a QBLAST stand-in
// run of about 2,000 vertices, its ground-truth plan, and its event log
// as one append body.
func finishRun(b *testing.B) (*repro.Run, *repro.Plan, []repro.EngineEvent, []byte) {
	b.Helper()
	s, err := repro.StandInSpec("QBLAST", 1)
	if err != nil {
		b.Fatal(err)
	}
	r, p := repro.GenerateRun(s, rand.New(rand.NewSource(2000)), 2000)
	evs := repro.EmitEvents(r, p)
	var log bytes.Buffer
	if err := repro.WriteEventLog(&log, evs); err != nil {
		b.Fatal(err)
	}
	return r, p, evs, log.Bytes()
}

// BenchmarkFinishStages splits a stream's /finish (live.Session.Finish)
// into its stages, each timed alone over one fully appended stream:
// materializing the copy table into the run and its plan (checked
// against the live numbering), run.Validate, orders and labels over
// that plan (the paper's with-plan setting: no plan is reconstructed),
// the canonical document encode, the SKL2 snapshot encode, and the
// backend write of both to the in-memory store. The stages' sum
// approximates BenchmarkServerFinish minus HTTP and cache plumbing.
func BenchmarkFinishStages(b *testing.B) {
	r, p, evs, _ := finishRun(b)
	st, err := store.NewMem(r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	skel, err := st.Skeleton(repro.TCM)
	if err != nil {
		b.Fatal(err)
	}
	ls := live.NewSession(st, "r1", skel, nil)
	if _, err := ls.Append(evs, 0); err != nil {
		b.Fatal(err)
	}
	l, err := repro.LabelWithPlan(r, p, skel)
	if err != nil {
		b.Fatal(err)
	}
	var doc, snap bytes.Buffer
	if err := repro.WriteRunXML(&doc, r, nil, "bench"); err != nil {
		b.Fatal(err)
	}
	if _, err := l.WriteTo(&snap); err != nil {
		b.Fatal(err)
	}
	stages := []struct {
		name string
		fn   func() error
	}{
		{"materialize", func() error {
			_, err := ls.MaterializedRun()
			return err
		}},
		{"validate", r.Validate},
		{"label", func() error {
			_, err := repro.LabelWithPlan(r, p, skel)
			return err
		}},
		{"encode", func() error {
			var buf bytes.Buffer
			return repro.WriteRunXML(&buf, r, nil, "bench")
		}},
		{"snapshot", func() error {
			var buf bytes.Buffer
			_, err := l.WriteTo(&buf)
			return err
		}},
		{"write", func() error {
			return st.Backend().WriteRun("r1", doc.Bytes(), snap.Bytes())
		}},
	}
	for _, stage := range stages {
		b.Run(stage.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := stage.fn(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkServerFinish measures POST /runs/{name}/finish end to end
// over the in-memory backend: materialize, validate, label with the
// stream's plan, encode, snapshot, write, and the session-cache
// refresh. Before each finish, off the clock, the finished run is
// deleted and the whole event log is appended again in one batch.
func BenchmarkServerFinish(b *testing.B) {
	r, _, _, log := finishRun(b)
	st, err := repro.NewMemStore(r.Spec, "bench")
	if err != nil {
		b.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{Store: st, EnableStream: true})
	if err != nil {
		b.Fatal(err)
	}
	do := func(method, target string, body []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(method, target, bytes.NewReader(body)))
		if rec.Code != 200 {
			b.Fatalf("%s %s: status %d: %s", method, target, rec.Code, rec.Body.String())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if i > 0 {
			do("DELETE", "/runs/r1", nil)
		}
		do("POST", "/runs/r1/events?offset=0", log)
		b.StartTimer()
		do("POST", "/runs/r1/finish", nil)
	}
}
