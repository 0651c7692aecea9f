package server

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"testing"
	"time"

	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/faultinject"
)

// newFaultServer builds a server over a fault-wrapped in-memory store
// holding runs "alpha" and "beta", with a fast-probing breaker. The
// returned fault backend starts with no plan (pure pass-through);
// tests flip faults on with SetPlan.
func newFaultServer(t *testing.T, cfg Config) (*Server, *faultinject.Backend, *store.Store) {
	t.Helper()
	fb := faultinject.Wrap(store.NewMemBackend(), faultinject.Plan{})
	st, err := store.New(fb, spec.PaperSpec(), "paper")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	rng := rand.New(rand.NewSource(11))
	for _, name := range []string{"alpha", "beta"} {
		r, _ := run.GenerateSized(spec.PaperSpec(), rng, 100)
		if err := st.PutRun(name, r, nil, label.TCM{}); err != nil {
			t.Fatalf("PutRun(%s): %v", name, err)
		}
	}
	cfg.Store = st
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 2
	}
	if cfg.BreakerCooldown == 0 {
		cfg.BreakerCooldown = 20 * time.Millisecond
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, fb, st
}

// healthz decodes /healthz far enough for breaker assertions.
type healthzBody struct {
	Status   string       `json:"status"`
	Degraded bool         `json:"degraded"`
	Breaker  BreakerStats `json:"breaker"`
	Expired  int64        `json:"streams_expired"`
}

func getHealthz(t *testing.T, s *Server) healthzBody {
	t.Helper()
	var h healthzBody
	if rec := do(t, s, "GET", "/healthz", "", &h); rec.Code != 200 {
		t.Fatalf("GET /healthz: %d %s", rec.Code, rec.Body.String())
	}
	return h
}

// waitClosed polls /healthz until the breaker closes (the probe loop
// healed it) or the deadline passes.
func waitClosed(t *testing.T, s *Server) healthzBody {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := getHealthz(t, s)
		if !h.Degraded {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker still open at deadline: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// resumeRun continues a stream from event index from, like a client
// resuming after an outage: offsets pick up at the live sequence
// instead of zero, so nothing already acknowledged is re-applied.
func resumeRun(t *testing.T, s *Server, name string, evs []events.Event, from, batch int) {
	t.Helper()
	seq := from
	for start := from; start < len(evs); start += batch {
		end := start + batch
		if end > len(evs) {
			end = len(evs)
		}
		var resp struct {
			Seq int `json:"seq"`
		}
		target := fmt.Sprintf("/runs/%s/events?offset=%d", name, seq)
		if rec := do(t, s, "POST", target, logText(t, evs[start:end]), &resp); rec.Code != 200 {
			t.Fatalf("POST %s: %d %s", target, rec.Code, rec.Body.String())
		}
		seq = resp.Seq
	}
	if seq != len(evs) {
		t.Fatalf("resumed stream %q ends at %d, want %d", name, seq, len(evs))
	}
}

// TestBreakerLifecycle drives the breaker through its whole arc: closed
// under faults below threshold, open after consecutive transient
// failures, degraded mode semantics while open (cache-hit reads serve,
// everything else sheds 503 + Retry-After), and automatic close once
// the probe loop finds the backend healthy again.
func TestBreakerLifecycle(t *testing.T) {
	s, fb, _ := newFaultServer(t, Config{EnableIngest: true})

	// Make alpha resident, leave beta cold.
	if rec := do(t, s, "GET", "/reachable?run=alpha&from=0&to=1", "", nil); rec.Code != 200 {
		t.Fatalf("warm alpha: %d %s", rec.Code, rec.Body.String())
	}
	if h := getHealthz(t, s); h.Degraded || h.Breaker.State != "closed" {
		t.Fatalf("healthy server reports %+v", h)
	}

	// Backend down: every op fails transiently.
	fb.SetPlan(faultinject.Plan{Default: faultinject.Rule{ErrRate: 1}})

	// Cold reads hit the backend, fail transiently, and strike the
	// breaker; at threshold 2 the second one opens it. Both answer 503.
	for i := 0; i < 2; i++ {
		rec := do(t, s, "GET", "/reachable?run=beta&from=0&to=1", "", nil)
		if rec.Code != 503 {
			t.Fatalf("cold read %d under faults: %d %s", i, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("cold read %d: missing Retry-After", i)
		}
	}
	h := getHealthz(t, s)
	if !h.Degraded || h.Breaker.State != "open" || h.Breaker.Opens != 1 {
		t.Fatalf("after %d transient failures: %+v", 2, h)
	}
	if h.Breaker.RetryAfterSeconds < 1 {
		t.Fatalf("open breaker advertises Retry-After %d", h.Breaker.RetryAfterSeconds)
	}

	// Degraded mode: the resident run answers at full fidelity without
	// touching the (down) backend...
	for _, target := range []string{
		"/reachable?run=alpha&from=0&to=1",
		"/lineage?run=alpha&vertex=3&dir=up",
		"/runs/alpha",
	} {
		if rec := do(t, s, "GET", target, "", nil); rec.Code != 200 {
			t.Fatalf("degraded cache-hit GET %s: %d %s", target, rec.Code, rec.Body.String())
		}
	}
	// ...while cache misses and writes shed with 503 + Retry-After.
	shed := []struct{ method, target, body string }{
		{"GET", "/reachable?run=beta&from=0&to=1", ""},
		{"GET", "/runs", ""},
		{"PUT", "/runs/gamma", "not-even-parsed"},
		{"DELETE", "/runs/alpha", ""},
	}
	for _, c := range shed {
		rec := do(t, s, c.method, c.target, c.body, nil)
		if rec.Code != 503 {
			t.Fatalf("degraded %s %s: %d %s", c.method, c.target, rec.Code, rec.Body.String())
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("degraded %s %s: missing Retry-After", c.method, c.target)
		}
	}

	// Heal the backend; the probe loop must close the breaker on its own
	// (client traffic is shed while open, so only the probe can heal it).
	fb.SetPlan(faultinject.Plan{})
	h = waitClosed(t, s)
	if h.Breaker.Probes < 1 {
		t.Fatalf("breaker closed without probing: %+v", h)
	}
	if rec := do(t, s, "GET", "/reachable?run=beta&from=0&to=1", "", nil); rec.Code != 200 {
		t.Fatalf("read after heal: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "DELETE", "/runs/beta", "", nil); rec.Code != 200 {
		t.Fatalf("delete after heal: %d %s", rec.Code, rec.Body.String())
	}
}

// TestBreakerDisabled checks that a negative threshold turns the whole
// subsystem off: unbounded transient failures never open the breaker
// and /healthz reports it disabled.
func TestBreakerDisabled(t *testing.T) {
	s, fb, _ := newFaultServer(t, Config{BreakerThreshold: -1})
	fb.SetPlan(faultinject.Plan{Default: faultinject.Rule{ErrRate: 1}})
	for i := 0; i < 10; i++ {
		if rec := do(t, s, "GET", "/reachable?run=beta&from=0&to=1", "", nil); rec.Code != 503 {
			t.Fatalf("read %d under faults: %d", i, rec.Code)
		}
	}
	h := getHealthz(t, s)
	if h.Degraded || h.Breaker.Enabled || h.Breaker.State != "disabled" {
		t.Fatalf("disabled breaker reports %+v", h)
	}
}

// TestDegradedLiveSession checks the streaming half of degraded mode: a
// live session keeps answering queries while the breaker is open (its
// state is in memory), appends are shed, and after the heal the client
// resumes at the same offset with nothing lost.
func TestDegradedLiveSession(t *testing.T) {
	sp := spec.PaperSpec()
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(23)), 80)
	evs := events.Emit(r, p)

	fb := faultinject.Wrap(store.NewMemBackend(), faultinject.Plan{})
	st, err := store.New(fb, sp, "paper")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, err := New(Config{
		Store: st, EnableStream: true,
		BreakerThreshold: 2, BreakerCooldown: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	half := len(evs) / 2
	seq := streamRun(t, s, "r", evs[:half], 16)

	// Backend down: appends strike the breaker (the transient contract
	// says nothing landed, so the session stays appendable) and open it.
	fb.SetPlan(faultinject.Plan{Default: faultinject.Rule{ErrRate: 1}})
	for i := 0; i < 2; i++ {
		target := fmt.Sprintf("/runs/r/events?offset=%d", seq)
		rec := do(t, s, "POST", target, logText(t, evs[half:half+1]), nil)
		if rec.Code != 503 {
			t.Fatalf("append %d under faults: %d %s", i, rec.Code, rec.Body.String())
		}
	}
	if h := getHealthz(t, s); !h.Degraded {
		t.Fatalf("breaker not open after failed appends: %+v", h)
	}

	// The live session still answers queries at its pre-fault sequence.
	var status struct {
		Status string `json:"status"`
		Events int    `json:"events"`
	}
	if rec := do(t, s, "GET", "/runs/r", "", &status); rec.Code != 200 {
		t.Fatalf("live status while degraded: %d %s", rec.Code, rec.Body.String())
	}
	if status.Status != "live" || status.Events != seq {
		t.Fatalf("live status while degraded: %+v, want live at %d", status, seq)
	}
	if rec := do(t, s, "GET", "/reachable?run=r&from=0&to=1", "", nil); rec.Code != 200 {
		t.Fatalf("live query while degraded: %d %s", rec.Code, rec.Body.String())
	}

	// Heal, wait for the probe to close the breaker, and finish the
	// stream from exactly where it stopped: zero acknowledged events
	// were lost to the outage.
	fb.SetPlan(faultinject.Plan{})
	waitClosed(t, s)
	resumeRun(t, s, "r", evs, seq, 16)
	if rec := do(t, s, "POST", "/runs/r/finish", "", nil); rec.Code != 200 {
		t.Fatalf("finish after heal: %d %s", rec.Code, rec.Body.String())
	}
}

// TestSweepIdleStreams checks the idle-TTL sweep: sessions younger than
// the TTL survive, idle ones are expired with their durable state, the
// counter reaches /healthz, and the name is free for a fresh stream.
func TestSweepIdleStreams(t *testing.T) {
	sp := spec.PaperSpec()
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(37)), 70)
	evs := events.Emit(r, p)
	s, st := newStreamServer(t, Config{})
	streamRun(t, s, "idle", evs[:len(evs)/2], 16)

	if expired := s.SweepIdleStreams(time.Hour); len(expired) != 0 {
		t.Fatalf("hour-TTL sweep expired %v", expired)
	}
	time.Sleep(2 * time.Millisecond)
	expired := s.SweepIdleStreams(time.Millisecond)
	if len(expired) != 1 || expired[0] != "idle" {
		t.Fatalf("sweep expired %v, want [idle]", expired)
	}
	if s.live.Get("idle") != nil {
		t.Fatal("expired session still registered")
	}
	if _, err := st.ReadRunEvents("idle"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("expired event log: err=%v, want ErrNotExist", err)
	}
	if h := getHealthz(t, s); h.Expired != 1 {
		t.Fatalf("healthz streams_expired = %d, want 1", h.Expired)
	}
	if rec := do(t, s, "GET", "/runs/idle", "", nil); rec.Code != 404 {
		t.Fatalf("GET expired run: %d, want 404", rec.Code)
	}
	// The name is reusable: a fresh stream starts at sequence zero and
	// runs to completion.
	streamRun(t, s, "idle", evs, 16)
	if rec := do(t, s, "POST", "/runs/idle/finish", "", nil); rec.Code != 200 {
		t.Fatalf("finish reused name: %d %s", rec.Code, rec.Body.String())
	}
	// TTL zero disables the sweep entirely.
	if expired := s.SweepIdleStreams(0); expired != nil {
		t.Fatalf("zero-TTL sweep expired %v", expired)
	}
}

// TestTransientProbeKeepsRunFinished pins that a failed "is this run
// stored?" probe is an error, never a "no": one transient ReadRun on an
// append to a finished run must answer 503 + Retry-After, not open a
// fresh live stream that shadows the stored run.
func TestTransientProbeKeepsRunFinished(t *testing.T) {
	s, fb, _ := newFaultServer(t, Config{EnableStream: true})
	fb.SetPlan(faultinject.Plan{PerOp: map[faultinject.Op]faultinject.Rule{
		faultinject.OpReadRun: {FailFirst: 1},
	}})
	rec := do(t, s, "POST", "/runs/alpha/events?offset=0", "exec a copy 0\n", nil)
	if rec.Code != 503 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("append to a finished run under a transient probe: %d (Retry-After %q) %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
	fb.SetPlan(faultinject.Plan{})
	var status struct {
		Status string `json:"status"`
	}
	if rec := do(t, s, "GET", "/runs/alpha", "", &status); rec.Code != 200 || status.Status != "finished" {
		t.Fatalf("GET /runs/alpha after the failed append: %d %+v", rec.Code, status)
	}
	if rec := do(t, s, "POST", "/runs/alpha/events?offset=0", "exec a copy 0\n", nil); rec.Code != 409 {
		t.Fatalf("append to a finished run: %d, want 409", rec.Code)
	}
}

// TestFinishTransientRecovery pins that a transient failure while
// /finish recovers a stream after a restart is a 503 with Retry-After
// and one breaker strike, like every other transient backend failure —
// and that the stream then finishes once the backend answers.
func TestFinishTransientRecovery(t *testing.T) {
	s1, fb, st := newFaultServer(t, Config{EnableStream: true})
	r, p := run.GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(29)), 60)
	streamRun(t, s1, "gamma", events.Emit(r, p), 16)

	// Restart: the new server has the stream only as durable state.
	s2, err := New(Config{Store: st, EnableStream: true,
		BreakerThreshold: 2, BreakerCooldown: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fb.SetPlan(faultinject.Plan{PerOp: map[faultinject.Op]faultinject.Rule{
		faultinject.OpReadMeta: {FailFirst: 1},
	}})
	rec := do(t, s2, "POST", "/runs/gamma/finish", "", nil)
	if rec.Code != 503 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("finish under a transient recovery failure: %d (Retry-After %q) %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
	if h := getHealthz(t, s2); h.Breaker.Consecutive != 1 {
		t.Fatalf("breaker after one transient recovery failure: %+v, want 1 strike", h.Breaker)
	}
	var fin struct {
		Vertices int `json:"vertices"`
	}
	if rec := do(t, s2, "POST", "/runs/gamma/finish", "", &fin); rec.Code != 200 || fin.Vertices != r.NumVertices() {
		t.Fatalf("finish after the fault: %d %s", rec.Code, rec.Body.String())
	}
}

// TestFinishRetryAfterCrash pins that a /finish retried across a crash
// between sealing and log cleanup succeeds again: the restarted server
// re-seals the leftover stream state into the same run, answers 200
// with its statistics and cleans the state. A finish of a stored run
// with no stream state left is still 409.
func TestFinishRetryAfterCrash(t *testing.T) {
	s1, st := newStreamServer(t, Config{})
	r, p := run.GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(41)), 60)
	evs := events.Emit(r, p)
	streamRun(t, s1, "delta", evs, 16)
	// The crash window: the run is stored, the event log not yet cleaned.
	if err := st.PutRun("delta", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Config{Store: st, EnableStream: true})
	if err != nil {
		t.Fatal(err)
	}
	var fin struct {
		Vertices int `json:"vertices"`
		Events   int `json:"events"`
	}
	if rec := do(t, s2, "POST", "/runs/delta/finish", "", &fin); rec.Code != 200 {
		t.Fatalf("retried finish: %d %s", rec.Code, rec.Body.String())
	}
	if fin.Vertices != r.NumVertices() || fin.Events != len(evs) {
		t.Fatalf("retried finish = %+v, want %d vertices, %d events", fin, r.NumVertices(), len(evs))
	}
	if _, err := st.ReadRunEvents("delta"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("event log after the retried finish: err=%v, want ErrNotExist", err)
	}
	var status struct {
		Status string `json:"status"`
	}
	if rec := do(t, s2, "GET", "/runs/delta", "", &status); rec.Code != 200 || status.Status != "finished" {
		t.Fatalf("GET /runs/delta: %d %+v", rec.Code, status)
	}
	if rec := do(t, s2, "POST", "/runs/delta/finish", "", nil); rec.Code != 409 {
		t.Fatalf("finish of a stored run without stream state: %d, want 409", rec.Code)
	}
}

// TestTransientProbeKeepsStreamDeletable pins that a failed probe for a
// stream-only run's durable state is an error, never a "no". After a
// restart the stream is not resident, so DELETE must read its event
// log: one transient ReadEventLog answers 503 + Retry-After and removes
// nothing, not 404; the retry deletes the stream.
func TestTransientProbeKeepsStreamDeletable(t *testing.T) {
	s, fb, st := newFaultServer(t, Config{EnableStream: true})
	r, p := run.GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(41)), 60)
	evs := events.Emit(r, p)
	streamRun(t, s, "gamma", evs[:len(evs)/2], 16)

	restarted, err := New(Config{Store: st, EnableStream: true})
	if err != nil {
		t.Fatal(err)
	}
	fb.SetPlan(faultinject.Plan{PerOp: map[faultinject.Op]faultinject.Rule{
		faultinject.OpReadEventLog: {FailFirst: 1},
	}})
	rec := do(t, restarted, "DELETE", "/runs/gamma", "", nil)
	if rec.Code != 503 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("DELETE of a stream under a transient probe: %d (Retry-After %q) %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
	fb.SetPlan(faultinject.Plan{})
	if rec := do(t, restarted, "DELETE", "/runs/gamma", "", nil); rec.Code != 200 {
		t.Fatalf("retried DELETE: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, restarted, "GET", "/runs/gamma", "", nil); rec.Code != 404 {
		t.Fatalf("GET deleted stream: %d %s", rec.Code, rec.Body.String())
	}
}
