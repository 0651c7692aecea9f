package server

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/events"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

func TestDeleteRun(t *testing.T) {
	s, st := newIngestServer(t, Config{})
	sp := spec.PaperSpec()
	r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(21)), 100)
	if rec := do(t, s, "PUT", "/runs/doomed", encodeRun(t, r, nil), nil); rec.Code != 200 {
		t.Fatalf("PUT: %d", rec.Code)
	}
	// Query it so the session is cache-resident: the delete must kill the
	// zombie session too, not just the blobs.
	if rec := do(t, s, "GET", "/runs?run=doomed", "", nil); rec.Code != 200 {
		t.Fatalf("warmup GET: %d", rec.Code)
	}

	var del struct {
		Run     string `json:"run"`
		Deleted bool   `json:"deleted"`
	}
	if rec := do(t, s, "DELETE", "/runs/doomed", "", &del); rec.Code != 200 {
		t.Fatalf("DELETE: %d %s", rec.Code, rec.Body.String())
	}
	if del.Run != "doomed" || !del.Deleted {
		t.Fatalf("DELETE response = %+v", del)
	}
	// Every read surface agrees the run is gone.
	if rec := do(t, s, "GET", "/runs?run=doomed", "", nil); rec.Code != 404 {
		t.Fatalf("GET after delete = %d, want 404 (stale session still answering)", rec.Code)
	}
	if rec := do(t, s, "GET", "/reachable?run=doomed&from=0&to=1", "", nil); rec.Code != 404 {
		t.Fatalf("/reachable after delete = %d, want 404", rec.Code)
	}
	var runs struct {
		Runs []string `json:"runs"`
	}
	do(t, s, "GET", "/runs", "", &runs)
	if len(runs.Runs) != 0 {
		t.Fatalf("/runs after delete = %v, want empty", runs.Runs)
	}
	if names, err := st.Runs(); err != nil || len(names) != 0 {
		t.Fatalf("store after delete = %v, %v", names, err)
	}
	if cs := s.Stats(); cs.Invalidations < 1 {
		t.Fatalf("stats after delete = %+v, want >= 1 invalidation", cs)
	}
	// The second delete is 404: the name is gone, not silently absorbed.
	if rec := do(t, s, "DELETE", "/runs/doomed", "", nil); rec.Code != 404 {
		t.Fatalf("second DELETE = %d, want 404", rec.Code)
	}
	// The name is free for reuse over the wire.
	r2, _ := run.GenerateSized(sp, rand.New(rand.NewSource(22)), 140)
	if rec := do(t, s, "PUT", "/runs/doomed", encodeRun(t, r2, nil), nil); rec.Code != 200 {
		t.Fatalf("re-PUT: %d", rec.Code)
	}
	var detail struct {
		Vertices int `json:"vertices"`
	}
	do(t, s, "GET", "/runs?run=doomed", "", &detail)
	if detail.Vertices != r2.NumVertices() {
		t.Fatalf("re-PUT serves %d vertices, want %d", detail.Vertices, r2.NumVertices())
	}
}

func TestDeleteRejections(t *testing.T) {
	s, _ := newIngestServer(t, Config{})
	cases := []struct {
		name, target string
		want         int
	}{
		{"missing run", "/runs/absent", 404},
		{"invalid name", "/runs/..evil", 400},
		{"meta-shaped name", "/runs/.ckpt-alpha", 400},
		{"nested path", "/runs/a%2Fb", 400},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		rec := do(t, s, "DELETE", c.target, "", &e)
		if rec.Code != c.want {
			t.Errorf("%s: status %d (want %d), body %s", c.name, rec.Code, c.want, rec.Body.String())
		}
		if e.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}

	// A read-only server refuses deletion outright, before looking at the
	// name — the mirror of the ingest 403.
	st, err := store.NewMem(spec.PaperSpec(), "paper")
	if err != nil {
		t.Fatal(err)
	}
	ro, err := New(Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if rec := do(t, ro, "DELETE", "/runs/anything", "", nil); rec.Code != 403 {
		t.Errorf("DELETE on read-only server = %d, want 403", rec.Code)
	}
	// MaxRuns without a write path is a configuration error, not a
	// silent no-op.
	if _, err := New(Config{Store: st, MaxRuns: 5}); err == nil {
		t.Error("New accepted MaxRuns without EnableIngest or EnableStream")
	}
}

// TestRetentionMaxRuns pins the -max-runs sweep: the store never holds
// more than the bound after a PUT, victims fall cold-first then
// LRU-first, and the freshly ingested run is never its own victim.
func TestRetentionMaxRuns(t *testing.T) {
	s, st := newIngestServer(t, Config{MaxRuns: 3})
	sp := spec.PaperSpec()
	put := func(name string) {
		t.Helper()
		r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(int64(len(name)))), 60)
		if rec := do(t, s, "PUT", "/runs/"+name, encodeRun(t, r, nil), nil); rec.Code != 200 {
			t.Fatalf("PUT %s: %d %s", name, rec.Code, rec.Body.String())
		}
	}
	query := func(name string) {
		t.Helper()
		if rec := do(t, s, "GET", "/runs?run="+name, "", nil); rec.Code != 200 {
			t.Fatalf("GET %s: %d", name, rec.Code)
		}
	}
	put("aa")
	put("bb")
	put("cc")
	// Make aa and bb hot (bb most recently used); cc stays cold.
	query("aa")
	query("bb")

	// The 4th run pushes the store to 4: the sweep must delete exactly
	// one, and it must be the cold cc — not the hot pair, and never the
	// run this very PUT just stored.
	put("dd")
	names, err := st.Runs()
	if err != nil || fmt.Sprint(names) != fmt.Sprint([]string{"aa", "bb", "dd"}) {
		t.Fatalf("runs after sweep = %v, %v; want [aa bb dd]", names, err)
	}
	if rec := do(t, s, "GET", "/runs?run=cc", "", nil); rec.Code != 404 {
		t.Fatalf("evicted run still serves: %d", rec.Code)
	}

	// Make dd hot too. Next PUT: no cold runs besides the protected
	// newcomer, so the least recently used cached run (aa) goes.
	query("dd")
	put("ee")
	names, _ = st.Runs()
	if fmt.Sprint(names) != fmt.Sprint([]string{"bb", "dd", "ee"}) {
		t.Fatalf("runs after second sweep = %v; want [bb dd ee] (LRU aa evicted)", names)
	}
	// The evicted run's session is invalidated with it.
	if rec := do(t, s, "GET", "/runs?run=aa", "", nil); rec.Code != 404 {
		t.Fatalf("LRU-evicted run still serves: %d", rec.Code)
	}

	// EnforceMaxRuns is callable directly for deployment-driven
	// retention; shrinking the bound deletes down to it.
	deleted, err := s.EnforceMaxRuns(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 2 {
		t.Fatalf("EnforceMaxRuns(1) deleted %v, want 2 runs", deleted)
	}
	if names, _ := st.Runs(); len(names) != 1 {
		t.Fatalf("runs after manual sweep = %v", names)
	}
}

// TestRetentionProtectsInflightIngest: a run whose PUT handler is still
// executing — persisted, maybe acknowledged, but the response not yet
// delivered — must never be a retention victim, even for a sweep
// triggered by a different client's concurrent PUT.
func TestRetentionProtectsInflightIngest(t *testing.T) {
	s, st := newIngestServer(t, Config{MaxRuns: 2})
	sp := spec.PaperSpec()
	for _, name := range []string{"cold1", "cold2"} {
		r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(int64(len(name)))), 60)
		if rec := do(t, s, "PUT", "/runs/"+name, encodeRun(t, r, nil), nil); rec.Code != 200 {
			t.Fatalf("PUT %s: %d", name, rec.Code)
		}
	}
	// Simulate another client's PUT of "fresh" mid-handler: persisted
	// and marked in flight, its own sweep not yet run.
	r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(77)), 60)
	if err := st.PutRun("fresh", r, nil, s.scheme); err != nil {
		t.Fatal(err)
	}
	s.ingestingMu.Lock()
	s.ingesting["fresh"]++
	s.ingestingMu.Unlock()
	// A concurrent sweep (any other PUT's, or deployment-driven) sees 3
	// runs over a bound of 2 — it must evict a cold old run, never the
	// in-flight one, even though "fresh" is cold.
	deleted, err := s.EnforceMaxRuns(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(deleted) != 1 || deleted[0] == "fresh" {
		t.Fatalf("sweep deleted %v; the in-flight ingest must survive", deleted)
	}
	names, _ := st.Runs()
	found := false
	for _, n := range names {
		found = found || n == "fresh"
	}
	if !found {
		t.Fatalf("in-flight run missing after sweep: %v", names)
	}
}

// TestInvalidateFencesInflightLoad pins the generation fence: a load
// that is in flight when its name is invalidated must not land its
// stale result in the cache — the next Get goes back to the backend.
func TestInvalidateFencesInflightLoad(t *testing.T) {
	loads := make(chan string, 8)
	gate := make(chan struct{})
	cache := newSessionCache(4, func(name string) (*session, error) {
		loads <- name
		<-gate
		return &session{}, nil
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		cache.Get("x")
	}()
	<-loads // load is in flight
	if !cache.Invalidate("x") {
		t.Fatal("Invalidate did not find the in-flight entry")
	}
	close(gate)
	<-done
	if cs := cache.Stats(); cs.Fenced != 1 || cs.Cached != 0 {
		t.Fatalf("stats after fenced load = %+v, want Fenced=1 Cached=0", cs)
	}
	// The next Get must reload, not serve the fenced result.
	if _, err := cache.Get("x"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-loads: // the reload hit the backend, as it must
	default:
		t.Fatal("Get after a fenced load served the stale session instead of reloading")
	}
	if cs := cache.Stats(); cs.Cached != 1 || cs.Misses != 2 {
		t.Fatalf("stats after reload = %+v, want Cached=1 Misses=2", cs)
	}
}

// TestDeleteLoadRaceStress is the delete-side twin of
// TestIngestNoTornSessions, meaningful under -race: with a one-entry
// cache forcing cold loads, one goroutine cycles PUT -> verify 200 ->
// DELETE -> verify 404 on a hot name while readers hammer it and a
// neighbor. A read may answer 200 (run present or load overlapped the
// delete) or 404 (deleted) but never 5xx, and — the resurrection
// check — immediately after a DELETE response and before the re-PUT,
// the run must be gone, no matter what loads were in flight.
func TestDeleteLoadRaceStress(t *testing.T) {
	s, _ := newIngestServer(t, Config{CacheSize: 1})
	sp := spec.PaperSpec()
	hot, _ := run.GenerateSized(sp, rand.New(rand.NewSource(41)), 90)
	other, _ := run.GenerateSized(sp, rand.New(rand.NewSource(42)), 60)
	docHot := encodeRun(t, hot, nil)
	if rec := do(t, s, "PUT", "/runs/other", encodeRun(t, other, nil), nil); rec.Code != 200 {
		t.Fatalf("seeding other: %d", rec.Code)
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	const readers = 4
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				// Alternate the neighbor in to force evictions of "hot",
				// so its reads are cold loads racing the lifecycle.
				name := "hot"
				if i%2 == 1 {
					name = "other"
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/runs?run="+name, nil))
				if rec.Code != 200 && rec.Code != 404 {
					t.Errorf("GET %s: %d %s", name, rec.Code, rec.Body.String())
					return
				}
				if name == "other" && rec.Code != 200 {
					t.Errorf("GET other: %d (an unrelated delete touched it)", rec.Code)
					return
				}
			}
		}()
	}
	for i := 0; i < 60 && !t.Failed(); i++ {
		if rec := do(t, s, "PUT", "/runs/hot", docHot, nil); rec.Code != 200 {
			t.Fatalf("cycle %d PUT: %d %s", i, rec.Code, rec.Body.String())
		}
		if rec := do(t, s, "GET", "/runs?run=hot", "", nil); rec.Code != 200 {
			t.Fatalf("cycle %d: run missing right after PUT: %d", i, rec.Code)
		}
		if rec := do(t, s, "DELETE", "/runs/hot", "", nil); rec.Code != 200 {
			t.Fatalf("cycle %d DELETE: %d %s", i, rec.Code, rec.Body.String())
		}
		// The linearization point: the DELETE answered, so no load — not
		// even one that was in flight across it — may resurrect the run.
		if rec := do(t, s, "GET", "/runs?run=hot", "", nil); rec.Code != 404 {
			t.Fatalf("cycle %d: run visible after DELETE completed: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	close(done)
	wg.Wait()
}

// TestRetentionSparesOwnFinish: the sweep after a stream's /finish
// never deletes the run it just sealed, although that run is cold and
// sorts before every other victim.
func TestRetentionSparesOwnFinish(t *testing.T) {
	s, st := newStreamServer(t, Config{EnableIngest: true, MaxRuns: 1})
	sp := st.Spec()
	r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(5)), 60)
	if rec := do(t, s, "PUT", "/runs/zz", encodeRun(t, r, nil), nil); rec.Code != 200 {
		t.Fatalf("PUT zz: %d %s", rec.Code, rec.Body.String())
	}
	fr, p := run.Figure3Run(sp)
	streamRun(t, s, "a0", events.Emit(fr, p), 4)
	if rec := do(t, s, "POST", "/runs/a0/finish", "", nil); rec.Code != 200 {
		t.Fatalf("finish a0: %d %s", rec.Code, rec.Body.String())
	}
	if names, err := st.Runs(); err != nil || fmt.Sprint(names) != "[a0]" {
		t.Fatalf("runs after the finish's sweep = %v, %v; want [a0]", names, err)
	}
}

// TestRetentionStreamOnly: a stream-only server stores runs through
// /finish, so -max-runs bounds its store too.
func TestRetentionStreamOnly(t *testing.T) {
	s, st := newStreamServer(t, Config{MaxRuns: 2})
	fr, p := run.Figure3Run(st.Spec())
	evs := events.Emit(fr, p)
	for _, name := range []string{"a", "b", "c"} {
		streamRun(t, s, name, evs, 4)
		if rec := do(t, s, "POST", "/runs/"+name+"/finish", "", nil); rec.Code != 200 {
			t.Fatalf("finish %s: %d %s", name, rec.Code, rec.Body.String())
		}
	}
	if names, err := st.Runs(); err != nil || len(names) != 2 {
		t.Fatalf("runs after three finishes = %v, %v; want 2", names, err)
	}
}
