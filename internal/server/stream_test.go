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
	"strings"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/rpq"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// newStreamServer builds a streaming-enabled server over a fresh
// in-memory store with the paper spec.
func newStreamServer(t *testing.T, cfg Config) (*Server, *store.Store) {
	t.Helper()
	st, err := store.NewMem(spec.PaperSpec(), "paper")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	cfg.EnableStream = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, st
}

// logText renders events in the wire format POST /runs/{name}/events
// accepts.
func logText(t testing.TB, evs []events.Event) string {
	t.Helper()
	var buf bytes.Buffer
	if err := events.WriteLog(&buf, evs); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// streamRun appends evs to name in batches of batch events, tracking
// the offset cursor like a real client, and returns the final sequence.
func streamRun(t *testing.T, s *Server, name string, evs []events.Event, batch int) int {
	t.Helper()
	seq := 0
	for start := 0; start < len(evs); start += batch {
		end := start + batch
		if end > len(evs) {
			end = len(evs)
		}
		var resp struct {
			Applied int `json:"applied"`
			Seq     int `json:"seq"`
		}
		target := fmt.Sprintf("/runs/%s/events?offset=%d", name, seq)
		if rec := do(t, s, "POST", target, logText(t, evs[start:end]), &resp); rec.Code != 200 {
			t.Fatalf("POST %s: %d %s", target, rec.Code, rec.Body.String())
		}
		if resp.Applied != end-start || resp.Seq != end {
			t.Fatalf("batch [%d:%d): applied %d seq %d", start, end, resp.Applied, resp.Seq)
		}
		seq = resp.Seq
	}
	return seq
}

// TestStreamDifferential is the subsystem's acceptance check: a run
// ingested event-by-event and finished must answer /reachable, /batch,
// /lineage and /rpq byte-identically to the same run ingested as one
// document — and identically to its own live session before the finish.
// Vertex references come in both forms (numeric IDs and occurrence
// names like "b2"), pinning the one resolver both run views share.
func TestStreamDifferential(t *testing.T) {
	sp := spec.PaperSpec()
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(41)), 120)
	evs := events.Emit(r, p)

	streamed, _ := newStreamServer(t, Config{})
	direct, _ := newIngestServer(t, Config{})
	if rec := do(t, direct, "PUT", "/runs/r", encodeRun(t, r, nil), nil); rec.Code != 200 {
		t.Fatalf("direct PUT: %d %s", rec.Code, rec.Body.String())
	}

	streamRun(t, streamed, "r", evs, 7)
	n := r.NumVertices()
	targets, query := differentialQueries(t, r, "r")

	live := make(map[string]string, len(targets))
	for _, tg := range targets {
		live[tg] = query(streamed, tg)
	}

	var fin struct {
		Vertices int `json:"vertices"`
		Events   int `json:"events"`
	}
	if rec := do(t, streamed, "POST", "/runs/r/finish", "", &fin); rec.Code != 200 {
		t.Fatalf("finish: %d %s", rec.Code, rec.Body.String())
	}
	if fin.Vertices != n || fin.Events != len(evs) {
		t.Fatalf("finish = %+v, want %d vertices, %d events", fin, n, len(evs))
	}

	for _, tg := range targets {
		sealed := query(streamed, tg)
		if sealed != live[tg] {
			t.Errorf("%s: live answer %q != finished answer %q", tg, live[tg], sealed)
		}
		if dir := query(direct, tg); sealed != dir {
			t.Errorf("%s: streamed answer %q != direct-PUT answer %q", tg, sealed, dir)
		}
	}

	// The sealed run's status flips from live to finished.
	var detail struct {
		Status   string `json:"status"`
		Vertices int    `json:"vertices"`
	}
	do(t, streamed, "GET", "/runs/r", "", &detail)
	if detail.Status != "finished" || detail.Vertices != n {
		t.Fatalf("GET /runs/r after finish = %+v", detail)
	}
}

// differentialQueries returns the differential query set for run r
// stored or streamed under runName — /reachable by numeric IDs and by
// occurrence names, /lineage both ways, /rpq with random patterns over
// the spec's modules, and one /batch over consecutive vertex pairs — and
// the function that sends one of them and returns the 200 body. Strides
// grow with the run, so a large run costs about as many queries as a
// 120-vertex one.
func differentialQueries(t *testing.T, r *run.Run, runName string) ([]string, func(*Server, string) string) {
	t.Helper()
	sp := r.Spec
	n := r.NumVertices()
	k := max(1, n/120)
	var targets []string
	for u := 0; u < n; u += 7 * k {
		for v := 0; v < n; v += 5 * k {
			targets = append(targets, fmt.Sprintf("/reachable?run=%s&from=%d&to=%d", runName, u, v))
		}
	}
	nm := run.NewNamer(r)
	name := func(v int) string { return nm.Name(dag.VertexID(v)) }
	for u := 1; u < n; u += 11 * k {
		targets = append(targets, fmt.Sprintf("/reachable?run=%s&from=%s&to=%s", runName, name(u), name(n-1-u)))
		targets = append(targets, fmt.Sprintf("/reachable?run=%s&from=%s&to=%d", runName, name(u), (u*7)%n))
	}
	for v := 0; v < n; v += 9 * k {
		targets = append(targets, fmt.Sprintf("/lineage?run=%s&vertex=%d&dir=up", runName, v))
		targets = append(targets, fmt.Sprintf("/lineage?run=%s&vertex=%d&dir=down", runName, v))
	}
	// Path queries: the live session answers over its materialized
	// execution tree, the finished and PUT runs over the stored document.
	modules := make([]string, sp.NumVertices())
	for v := range modules {
		modules[v] = string(sp.NameOf(dag.VertexID(v)))
	}
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 8; i++ {
		from, to := name(i*n/16), name(n-1-i*n/9)
		if i%2 == 1 {
			to = fmt.Sprint(n - 1 - i*n/9)
		}
		body, err := json.Marshal(map[string]string{
			"run": runName, "from": from, "to": to, "pattern": rpq.RandomPattern(rng, modules, 2+i%2),
		})
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, "/rpq "+string(body))
	}
	var pairs bytes.Buffer
	fmt.Fprintf(&pairs, `{"run":%q,"pairs":[`, runName)
	for i := 0; i < n-1; i++ {
		if i > 0 {
			pairs.WriteByte(',')
		}
		fmt.Fprintf(&pairs, "[%d,%d]", i, i+1)
	}
	pairs.WriteString("]}")
	targets = append(targets, "/batch")

	query := func(s *Server, target string) string {
		method, path, body := "GET", target, ""
		switch {
		case target == "/batch":
			method, body = "POST", pairs.String()
		case strings.HasPrefix(target, "/rpq "):
			method, path, body = "POST", "/rpq", strings.TrimPrefix(target, "/rpq ")
		}
		rec := do(t, s, method, path, body, nil)
		if rec.Code != 200 {
			t.Fatalf("%s %s: %d %s", method, target, rec.Code, rec.Body.String())
		}
		return rec.Body.String()
	}
	return targets, query
}

func TestStreamStatusAndHealth(t *testing.T) {
	s, _ := newStreamServer(t, Config{})
	sp := spec.PaperSpec()
	r, p := run.Figure3Run(sp)
	evs := events.Emit(r, p)
	seq := streamRun(t, s, "fig3", evs, 3)

	var detail struct {
		Status        string `json:"status"`
		Vertices      int    `json:"vertices"`
		Events        int    `json:"events"`
		CheckpointSeq int    `json:"checkpoint_seq"`
		LogBytes      int64  `json:"event_log_bytes"`
	}
	if rec := do(t, s, "GET", "/runs/fig3", "", &detail); rec.Code != 200 {
		t.Fatalf("GET /runs/fig3: %d", rec.Code)
	}
	if detail.Status != "live" || detail.Events != seq || detail.Vertices != r.NumVertices() {
		t.Fatalf("live status = %+v (want live, %d events, %d vertices)", detail, seq, r.NumVertices())
	}
	if detail.CheckpointSeq != 0 || detail.LogBytes == 0 {
		t.Fatalf("live status = %+v: expected a durable log and no checkpoint", detail)
	}

	// The /runs?run= detail branch answers live runs identically.
	var byQuery struct {
		Status string `json:"status"`
		Events int    `json:"events"`
	}
	do(t, s, "GET", "/runs?run=fig3", "", &byQuery)
	if byQuery.Status != "live" || byQuery.Events != seq {
		t.Fatalf("/runs?run=fig3 = %+v", byQuery)
	}

	var health struct {
		Stream bool `json:"stream"`
		Live   struct {
			Open        int64 `json:"open"`
			Events      int64 `json:"events"`
			Checkpoints int64 `json:"checkpoints"`
		} `json:"live"`
	}
	do(t, s, "GET", "/healthz", "", &health)
	if !health.Stream || health.Live.Open != 1 || health.Live.Events != int64(seq) || health.Live.Checkpoints != 0 {
		t.Fatalf("/healthz live gauges = %+v", health)
	}
}

func TestStreamResume(t *testing.T) {
	s, _ := newStreamServer(t, Config{})
	sp := spec.PaperSpec()
	r, p := run.Figure3Run(sp)
	evs := events.Emit(r, p)
	mid := len(evs) / 2
	streamRun(t, s, "f", evs[:mid], mid)

	// Resending an acknowledged prefix applies nothing (lost response).
	var resp struct {
		Applied int `json:"applied"`
		Seq     int `json:"seq"`
	}
	if rec := do(t, s, "POST", "/runs/f/events?offset=0", logText(t, evs[:mid]), &resp); rec.Code != 200 {
		t.Fatalf("resend: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Applied != 0 || resp.Seq != mid {
		t.Fatalf("resend = %+v, want 0 applied at seq %d", resp, mid)
	}

	// An overlapping batch applies only the surplus.
	if mid < 2 {
		t.Fatal("run too small for overlap test")
	}
	target := fmt.Sprintf("/runs/f/events?offset=%d", mid-2)
	if rec := do(t, s, "POST", target, logText(t, evs[mid-2:mid+1]), &resp); rec.Code != 200 {
		t.Fatalf("overlap: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Applied != 1 || resp.Seq != mid+1 {
		t.Fatalf("overlap = %+v, want 1 applied at seq %d", resp, mid+1)
	}

	// A gap is 409 and reports the sequence to resume from.
	var conflict struct {
		Error string `json:"error"`
		Seq   int    `json:"seq"`
	}
	target = fmt.Sprintf("/runs/f/events?offset=%d", mid+5)
	if rec := do(t, s, "POST", target, logText(t, evs[mid+1:]), &conflict); rec.Code != 409 {
		t.Fatalf("gap: %d %s", rec.Code, rec.Body.String())
	}
	if conflict.Seq != mid+1 || conflict.Error == "" {
		t.Fatalf("gap response = %+v", conflict)
	}

	// A conflicting resend (different events at applied sequences) is 409.
	bad := make([]events.Event, len(evs[:mid]))
	copy(bad, evs[:mid])
	bad[0], bad[1] = bad[1], bad[0]
	if rec := do(t, s, "POST", "/runs/f/events?offset=0", logText(t, bad), &conflict); rec.Code != 409 {
		t.Fatalf("conflict: %d %s", rec.Code, rec.Body.String())
	}

	// Omitting the offset appends at the current sequence.
	if rec := do(t, s, "POST", "/runs/f/events", logText(t, evs[mid+1:]), &resp); rec.Code != 200 {
		t.Fatalf("offsetless append: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Seq != len(evs) {
		t.Fatalf("offsetless append ends at seq %d, want %d", resp.Seq, len(evs))
	}

	// A semantically invalid event is 409 with nothing applied.
	badEv := []events.Event{{Kind: events.ModuleExec, Copy: 999, Module: "a"}}
	if rec := do(t, s, "POST", fmt.Sprintf("/runs/f/events?offset=%d", len(evs)), logText(t, badEv), &conflict); rec.Code != 409 {
		t.Fatalf("invalid event: %d %s", rec.Code, rec.Body.String())
	}

	if rec := do(t, s, "POST", "/runs/f/finish", "", nil); rec.Code != 200 {
		t.Fatalf("finish: %d", rec.Code)
	}
	// Appending to a finished run is 409, as is finishing it again.
	if rec := do(t, s, "POST", "/runs/f/events?offset=0", logText(t, evs[:1]), nil); rec.Code != 409 {
		t.Fatalf("append after finish: %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/runs/f/finish", "", nil); rec.Code != 409 {
		t.Fatalf("double finish: %d", rec.Code)
	}
}

func TestStreamRejections(t *testing.T) {
	// Streaming off: the endpoints refuse outright.
	_, st := newTestStore(t)
	s := newTestServer(t, st, 4, 64)
	if rec := do(t, s, "POST", "/runs/x/events", "exec a copy 0\n", nil); rec.Code != 403 {
		t.Fatalf("events with streaming off: %d", rec.Code)
	}
	if rec := do(t, s, "POST", "/runs/x/finish", "", nil); rec.Code != 403 {
		t.Fatalf("finish with streaming off: %d", rec.Code)
	}

	ss, _ := newStreamServer(t, Config{})
	for name, c := range map[string]struct {
		target, body string
		want         int
	}{
		"bad name":       {"/runs/.hidden/events", "exec a copy 0\n", 400},
		"bad offset":     {"/runs/ok/events?offset=-1", "exec a copy 0\n", 400},
		"garbage offset": {"/runs/ok/events?offset=x", "exec a copy 0\n", 400},
		"garbage body":   {"/runs/ok/events", "not an event log\n", 400},
		"finish nothing": {"/runs/never/finish", "", 404},
		"incomplete":     {"/runs/inc/finish", "", 409},
	} {
		if name == "incomplete" {
			// Seed a stream that cannot materialize yet: a fork copy
			// started with no executions recorded anywhere.
			if rec := do(t, ss, "POST", "/runs/inc/events?offset=0", "copy 1 parent 0 hnode 1\n", nil); rec.Code != 200 {
				t.Fatalf("seeding incomplete stream: %d %s", rec.Code, rec.Body.String())
			}
		}
		if rec := do(t, ss, "POST", c.target, c.body, nil); rec.Code != c.want {
			t.Errorf("%s: POST %s = %d, want %d (%s)", name, c.target, rec.Code, c.want, rec.Body.String())
		}
	}
}

// TestStreamRecovery simulates a crash by building a second server over
// the same store: the registry dies with the first server, and the
// second must resurrect the session from the event log with no
// accepted event lost.
func TestStreamRecovery(t *testing.T) {
	st, err := store.NewMem(spec.PaperSpec(), "paper")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s1, err := New(Config{Store: st, EnableStream: true})
	if err != nil {
		t.Fatal(err)
	}
	sp := spec.PaperSpec()
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(42)), 90)
	evs := events.Emit(r, p)
	mid := len(evs) * 2 / 3
	streamRun(t, s1, "crashy", evs[:mid], 5)

	// "Crash": s1 is abandoned; s2 shares only the durable store.
	s2, err := New(Config{Store: st, EnableStream: true})
	if err != nil {
		t.Fatal(err)
	}
	var detail struct {
		Status string `json:"status"`
		Events int    `json:"events"`
	}
	if rec := do(t, s2, "GET", "/runs/crashy", "", &detail); rec.Code != 200 {
		t.Fatalf("status after restart: %d %s", rec.Code, rec.Body.String())
	}
	if detail.Status != "live" || detail.Events != mid {
		t.Fatalf("recovered status = %+v, want live at seq %d", detail, mid)
	}
	var health struct {
		Live struct {
			Replays int64 `json:"replays"`
		} `json:"live"`
	}
	do(t, s2, "GET", "/healthz", "", &health)
	if health.Live.Replays != 1 {
		t.Fatalf("replays = %d, want 1", health.Live.Replays)
	}

	// The stream resumes where it left off and finishes normally.
	var resp struct {
		Seq int `json:"seq"`
	}
	if rec := do(t, s2, "POST", fmt.Sprintf("/runs/crashy/events?offset=%d", mid), logText(t, evs[mid:]), &resp); rec.Code != 200 {
		t.Fatalf("append after restart: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Seq != len(evs) {
		t.Fatalf("seq after restart append = %d, want %d", resp.Seq, len(evs))
	}
	var fin struct {
		Vertices int `json:"vertices"`
	}
	if rec := do(t, s2, "POST", "/runs/crashy/finish", "", &fin); rec.Code != 200 {
		t.Fatalf("finish after restart: %d %s", rec.Code, rec.Body.String())
	}
	if fin.Vertices != r.NumVertices() {
		t.Fatalf("recovered run has %d vertices, want %d", fin.Vertices, r.NumVertices())
	}
}

func TestStreamDelete(t *testing.T) {
	s, _ := newStreamServer(t, Config{})
	sp := spec.PaperSpec()
	r, p := run.Figure3Run(sp)
	evs := events.Emit(r, p)
	streamRun(t, s, "doomed", evs, 3)

	// DELETE aborts a live-only stream: the run was never stored, but
	// the delete still succeeds and clears every trace.
	var del struct {
		Deleted bool `json:"deleted"`
	}
	if rec := do(t, s, "DELETE", "/runs/doomed", "", &del); rec.Code != 200 || !del.Deleted {
		t.Fatalf("DELETE live run: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "GET", "/runs/doomed", "", nil); rec.Code != 404 {
		t.Fatalf("status after delete: %d, want 404", rec.Code)
	}
	// A new stream under the same name starts from scratch.
	var resp struct {
		Seq int `json:"seq"`
	}
	if rec := do(t, s, "POST", "/runs/doomed/events?offset=0", logText(t, evs[:1]), &resp); rec.Code != 200 {
		t.Fatalf("restream after delete: %d %s", rec.Code, rec.Body.String())
	}
	if resp.Seq != 1 {
		t.Fatalf("restream seq = %d, want 1 (stale state survived the delete)", resp.Seq)
	}
}

// TestPutOverLiveStream pins that a PUT over a live stream replaces it:
// the PUT clears the name's stream state, so the status, queries and
// appends that follow answer as a server restarted over the same store
// answers them — the stored run, with appends refused as finished.
func TestPutOverLiveStream(t *testing.T) {
	s, st := newStreamServer(t, Config{EnableIngest: true})
	r, p := run.GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(44)), 55)
	evs := events.Emit(r, p)
	prefix := len(evs) * 4 / 5
	streamRun(t, s, "x", evs[:prefix], 16)
	if rec := do(t, s, "PUT", "/runs/x", encodeRun(t, r, nil), nil); rec.Code != 200 {
		t.Fatalf("PUT over live stream: %d %s", rec.Code, rec.Body.String())
	}
	if _, err := st.ReadRunEvents("x"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("event log after PUT: err=%v, want ErrNotExist", err)
	}
	restarted, err := New(Config{Store: st, EnableIngest: true, EnableStream: true})
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Status   string `json:"status"`
		Vertices int    `json:"vertices"`
	}
	rec := do(t, s, "GET", "/runs/x", "", &status)
	if want := do(t, restarted, "GET", "/runs/x", "", nil); rec.Code != want.Code || rec.Body.String() != want.Body.String() {
		t.Fatalf("status after PUT = %d %s, restarted server answers %d %s",
			rec.Code, rec.Body.String(), want.Code, want.Body.String())
	}
	if status.Status != "finished" || status.Vertices != r.NumVertices() {
		t.Fatalf("status after PUT = %+v, want finished with %d vertices", status, r.NumVertices())
	}
	targets, query := differentialQueries(t, r, "x")
	for _, tg := range targets {
		if got, want := query(s, tg), query(restarted, tg); got != want {
			t.Fatalf("%s after PUT = %q, restarted server answers %q", tg, got, want)
		}
	}
	target := fmt.Sprintf("/runs/x/events?offset=%d", prefix)
	rec = do(t, s, "POST", target, logText(t, evs[prefix:]), nil)
	if want := do(t, restarted, "POST", target, logText(t, evs[prefix:]), nil); rec.Code != http.StatusConflict ||
		rec.Code != want.Code || rec.Body.String() != want.Body.String() {
		t.Fatalf("append after PUT = %d %s, restarted server answers %d %s",
			rec.Code, rec.Body.String(), want.Code, want.Body.String())
	}
}

// TestStreamStress is the streaming twin of TestIngestNoTornSessions:
// one run takes concurrent event appends, reachability/batch/lineage
// queries and status reads, then a finish races
// the readers. Run under -race this is the subsystem's locking proof.
func TestStreamStress(t *testing.T) {
	s, _ := newStreamServer(t, Config{})
	sp := spec.PaperSpec()
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(43)), 150)
	evs := events.Emit(r, p)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				var rec *httptest.ResponseRecorder
				switch i % 4 {
				case 0:
					u, v := rng.Intn(r.NumVertices()), rng.Intn(r.NumVertices())
					rec = do(t, s, "GET", fmt.Sprintf("/reachable?run=hot&from=%d&to=%d", u, v), "", nil)
				case 1:
					u, v := rng.Intn(r.NumVertices()), rng.Intn(r.NumVertices())
					rec = do(t, s, "POST", "/batch", fmt.Sprintf(`{"run":"hot","pairs":[[%d,%d]]}`, u, v), nil)
				case 2:
					rec = do(t, s, "GET", fmt.Sprintf("/lineage?run=hot&vertex=%d&dir=down", rng.Intn(r.NumVertices())), "", nil)
				default:
					rec = do(t, s, "GET", "/runs/hot", "", nil)
				}
				// Early queries race the first append (404) and vertex
				// references race the stream's growth (404); anything
				// else must succeed.
				if rec.Code != 200 && rec.Code != 404 {
					t.Errorf("query during stream: %d %s", rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}

	seq := 0
	for start := 0; start < len(evs) && !t.Failed(); start += 3 {
		end := start + 3
		if end > len(evs) {
			end = len(evs)
		}
		var resp struct {
			Seq int `json:"seq"`
		}
		rec := do(t, s, "POST", fmt.Sprintf("/runs/hot/events?offset=%d", seq), logText(t, evs[start:end]), &resp)
		if rec.Code != 200 {
			t.Fatalf("append [%d:%d): %d %s", start, end, rec.Code, rec.Body.String())
		}
		seq = resp.Seq
	}
	var fin struct {
		Vertices int `json:"vertices"`
	}
	if rec := do(t, s, "POST", "/runs/hot/finish", "", &fin); rec.Code != 200 {
		t.Fatalf("finish under load: %d %s", rec.Code, rec.Body.String())
	}
	close(done)
	wg.Wait()
	if fin.Vertices != r.NumVertices() {
		t.Fatalf("finished with %d vertices, want %d", fin.Vertices, r.NumVertices())
	}
	var detail struct {
		Status string `json:"status"`
	}
	do(t, s, "GET", "/runs/hot", "", &detail)
	if detail.Status != "finished" {
		t.Fatalf("status after stress = %q", detail.Status)
	}
}

// FuzzIngestEvents feeds hostile bodies and offsets to the append
// endpoint: whatever arrives, the server must answer with a client
// error class, never a 5xx or a panic.
func FuzzIngestEvents(f *testing.F) {
	f.Add([]byte("copy 1 parent 0 hnode 1\nexec a copy 1\n"), 0)
	f.Add([]byte("exec a copy 0\nexec b copy 0\n"), 0)
	f.Add([]byte("copy 999999 parent -4 hnode 99\n"), -3)
	f.Add([]byte("# comment\n\nexec nosuch copy 0\n"), 7)
	f.Add([]byte("copy 1 parent 0 hnode 18446744073709551616\n"), 0)
	f.Add(bytes.Repeat([]byte("a"), 9000), 0)
	f.Add([]byte{0, 1, 2, 0xff, 0xfe, '\n', 'e', 'x', 'e', 'c'}, 1)

	st, err := store.NewMem(spec.PaperSpec(), "paper")
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Store: st, EnableStream: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte, offset int) {
		target := fmt.Sprintf("/runs/fz/events?offset=%d", offset)
		req := httptest.NewRequest("POST", target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("POST %s with %q: %d %s", target, body, rec.Code, rec.Body.String())
		}
	})
}
