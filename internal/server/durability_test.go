package server

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/events"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/faultinject"
	"repro/internal/workload"
)

// metaCounter counts the meta blobs written through it: a stream's
// checkpoints are the only meta a streaming server writes.
type metaCounter struct {
	store.Backend
	writes atomic.Int64
}

func (b *metaCounter) WriteMeta(name string, data []byte) error {
	b.writes.Add(1)
	return b.Backend.WriteMeta(name, data)
}

// TestStreamLogIsTheOnlyCopy streams a QBLAST run of over 2,000 events
// in 64-event batches and pins that the event log is all a stream
// writes: no meta blob while streaming, recovering or finishing. A
// second server over the same store recovers every acknowledged event
// from the log alone and answers /reachable, /batch, /lineage and /rpq
// byte-identically before and after sealing the run.
func TestStreamLogIsTheOnlyCopy(t *testing.T) {
	sp, err := workload.StandIn("QBLAST", 1)
	if err != nil {
		t.Fatal(err)
	}
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(61)), 1800)
	evs := events.Emit(r, p)
	if len(evs) < 2000 {
		t.Fatalf("stream has %d events, want at least 2000", len(evs))
	}
	cb := &metaCounter{Backend: store.NewMemBackend()}
	st, err := store.New(cb, sp, "qblast")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s1, err := New(Config{Store: st, EnableStream: true})
	if err != nil {
		t.Fatal(err)
	}
	acked := streamRun(t, s1, "big", evs, 64)
	if n := cb.writes.Load(); n != 0 {
		t.Fatalf("streaming %d events wrote %d meta blobs, want 0", acked, n)
	}

	// "Crash": s1 is abandoned; s2 has only the event log.
	s2, err := New(Config{Store: st, EnableStream: true})
	if err != nil {
		t.Fatal(err)
	}
	var status struct {
		Status string `json:"status"`
		Events int    `json:"events"`
	}
	if rec := do(t, s2, "GET", "/runs/big", "", &status); rec.Code != 200 || status.Status != "live" || status.Events != acked {
		t.Fatalf("recovered status: %d %+v, want live with %d events", rec.Code, status, acked)
	}
	targets, query := differentialQueries(t, r, "big")
	recovered := make(map[string]string, len(targets))
	for _, tg := range targets {
		recovered[tg] = query(s2, tg)
	}
	if rec := do(t, s2, "POST", "/runs/big/finish", "", nil); rec.Code != 200 {
		t.Fatalf("finish: %d %s", rec.Code, rec.Body.String())
	}
	for _, tg := range targets {
		if sealed := query(s2, tg); sealed != recovered[tg] {
			t.Errorf("%s: recovered answer %q != finished answer %q", tg, recovered[tg], sealed)
		}
	}
	if n := cb.writes.Load(); n != 0 {
		t.Fatalf("recovery and finish wrote %d meta blobs, want 0", n)
	}
}

// TestClearLeavesNoCheckpointFile pins that clearing stream state on
// an fs store leaves no checkpoint file: none for a run that never had
// one (a DELETE of a PUT run on a streaming server, a /finish or DELETE
// of a streamed run), and none for a stream whose torn tail recovery
// fenced with a checkpoint, whether it is then finished or deleted.
func TestClearLeavesNoCheckpointFile(t *testing.T) {
	dir := t.TempDir()
	sp := spec.PaperSpec()
	st, err := store.Create(dir, sp, "paper")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, err := New(Config{Store: st, EnableIngest: true, EnableStream: true})
	if err != nil {
		t.Fatal(err)
	}
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(43)), 60)
	if rec := do(t, s, "PUT", "/runs/put", encodeRun(t, r, nil), nil); rec.Code != 200 {
		t.Fatalf("PUT: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s, "DELETE", "/runs/put", "", nil); rec.Code != 200 {
		t.Fatalf("DELETE put run: %d %s", rec.Code, rec.Body.String())
	}
	evs := events.Emit(r, p)
	streamRun(t, s, "streamed", evs, 16)
	if rec := do(t, s, "POST", "/runs/streamed/finish", "", nil); rec.Code != 200 {
		t.Fatalf("finish: %d %s", rec.Code, rec.Body.String())
	}
	streamRun(t, s, "aborted", evs[:len(evs)/2], 16)
	for _, name := range []string{"streamed", "aborted"} {
		if rec := do(t, s, "DELETE", "/runs/"+name, "", nil); rec.Code != 200 {
			t.Fatalf("DELETE %s: %d %s", name, rec.Code, rec.Body.String())
		}
	}
	if files, err := filepath.Glob(filepath.Join(dir, ".ckpt-*")); err != nil || len(files) != 0 {
		t.Fatalf("checkpoint files after PUT, DELETE and finish: %v (%v), want none", files, err)
	}

	// Two streams end in a torn record, as after a crash mid-append; a
	// restarted server's recovery fences each tail with a checkpoint.
	half := len(evs) / 2
	for _, name := range []string{"torn", "tornabort"} {
		streamRun(t, s, name, evs[:half], 16)
		if err := st.Backend().AppendEventLog(name, []byte("exec b")); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := New(Config{Store: st, EnableIngest: true, EnableStream: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"torn", "tornabort"} {
		// First touch: the status query replays the log, fencing its tail.
		if rec := do(t, s2, "GET", "/runs/"+name, "", nil); rec.Code != 200 {
			t.Fatalf("GET /runs/%s after restart: %d %s", name, rec.Code, rec.Body.String())
		}
		if checkpointOf(t, st, name) == "" {
			t.Fatalf("recovery of %s fenced no torn tail", name)
		}
	}
	target := fmt.Sprintf("/runs/torn/events?offset=%d", half)
	if rec := do(t, s2, "POST", target, logText(t, evs[half:]), nil); rec.Code != 200 {
		t.Fatalf("append after recovery: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s2, "POST", "/runs/torn/finish", "", nil); rec.Code != 200 {
		t.Fatalf("finish fenced stream: %d %s", rec.Code, rec.Body.String())
	}
	if rec := do(t, s2, "DELETE", "/runs/tornabort", "", nil); rec.Code != 200 {
		t.Fatalf("DELETE fenced stream: %d %s", rec.Code, rec.Body.String())
	}
	if files, err := filepath.Glob(filepath.Join(dir, ".ckpt-*")); err != nil || len(files) != 0 {
		t.Fatalf("checkpoint files after finishing and deleting fenced streams: %v (%v), want none", files, err)
	}
}

// checkpointOf reads name's checkpoint blob ("" when absent).
func checkpointOf(t *testing.T, st *store.Store, name string) string {
	t.Helper()
	rc, err := st.Backend().ReadMeta(live.CheckpointMeta(name))
	if errors.Is(err, fs.ErrNotExist) {
		return ""
	}
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDeleteFailedClearKeepsStream pins DELETE's contract on a stream
// whose durable state fails to clear: the DELETE is a 503 with
// Retry-After and the stream stays live, the retry is a 200, and only
// then is the name gone (404) and free to stream again from offset 0.
// It covers a failed event-log delete, and a failed checkpoint clear on
// a stream whose recovery fenced a torn tail.
func TestDeleteFailedClearKeepsStream(t *testing.T) {
	r, p := run.GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(41)), 60)
	evs := events.Emit(r, p)
	for _, tc := range []struct {
		name string
		op   faultinject.Op
		torn bool
	}{
		{"event-log", faultinject.OpDeleteEventLog, false},
		{"checkpoint", faultinject.OpDeleteMeta, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, fb, st := newFaultServer(t, Config{EnableStream: true})
			half := len(evs) / 2
			streamRun(t, s, "gamma", evs[:half], 16)
			if tc.torn {
				// A torn append breaks the session; the retried batch
				// recovers it, and recovery fences the torn bytes.
				fb.SetPlan(faultinject.Plan{PerOp: map[faultinject.Op]faultinject.Rule{
					faultinject.OpAppendEventLog: {TornRate: 1},
				}})
				target := fmt.Sprintf("/runs/gamma/events?offset=%d", half)
				if rec := do(t, s, "POST", target, logText(t, evs[half:half+8]), nil); rec.Code == 200 {
					t.Fatal("torn append answered 200")
				}
				fb.SetPlan(faultinject.Plan{})
				if rec := do(t, s, "POST", target, logText(t, evs[half:half+8]), nil); rec.Code != 200 {
					t.Fatalf("append after the torn one: %d %s", rec.Code, rec.Body.String())
				}
				if checkpointOf(t, st, "gamma") == "" {
					t.Fatal("recovery wrote no checkpoint over the torn tail")
				}
			}
			fb.SetPlan(faultinject.Plan{PerOp: map[faultinject.Op]faultinject.Rule{tc.op: {FailFirst: 1}}})
			rec := do(t, s, "DELETE", "/runs/gamma", "", nil)
			if rec.Code != 503 || rec.Header().Get("Retry-After") == "" {
				t.Fatalf("DELETE under a failed %s: %d (Retry-After %q) %s",
					tc.op, rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
			}
			var status struct {
				Status string `json:"status"`
			}
			if rec := do(t, s, "GET", "/runs/gamma", "", &status); rec.Code != 200 || status.Status != "live" {
				t.Fatalf("GET after the failed DELETE: %d %+v, want the stream still live", rec.Code, status)
			}
			if rec := do(t, s, "DELETE", "/runs/gamma", "", nil); rec.Code != 200 {
				t.Fatalf("retried DELETE: %d %s", rec.Code, rec.Body.String())
			}
			fb.SetPlan(faultinject.Plan{})
			if _, err := st.ReadRunEvents("gamma"); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("event log after DELETE: err=%v, want ErrNotExist", err)
			}
			if ckpt := checkpointOf(t, st, "gamma"); ckpt != "" {
				t.Fatalf("checkpoint after DELETE: %q, want none", ckpt)
			}
			if rec := do(t, s, "GET", "/runs/gamma", "", nil); rec.Code != 404 {
				t.Fatalf("GET after DELETE: %d %s", rec.Code, rec.Body.String())
			}
			var resp struct {
				Seq int `json:"seq"`
			}
			if rec := do(t, s, "POST", "/runs/gamma/events?offset=0", logText(t, evs[:1]), &resp); rec.Code != 200 || resp.Seq != 1 {
				t.Fatalf("restream after DELETE: %d seq %d %s, want 200 at seq 1", rec.Code, resp.Seq, rec.Body.String())
			}
		})
	}
}

// TestPutFailedClearRetries pins a PUT over a live stream whose event
// log fails to delete: the PUT is a 503 with Retry-After, and its retry
// stores the run again and clears the stream.
func TestPutFailedClearRetries(t *testing.T) {
	s, fb, st := newFaultServer(t, Config{EnableIngest: true, EnableStream: true})
	r, p := run.GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(45)), 60)
	evs := events.Emit(r, p)
	streamRun(t, s, "delta", evs[:len(evs)/2], 16)
	fb.SetPlan(faultinject.Plan{PerOp: map[faultinject.Op]faultinject.Rule{faultinject.OpDeleteEventLog: {FailFirst: 1}}})
	rec := do(t, s, "PUT", "/runs/delta", encodeRun(t, r, nil), nil)
	if rec.Code != 503 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("PUT under a failed event-log delete: %d (Retry-After %q) %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
	if rec := do(t, s, "PUT", "/runs/delta", encodeRun(t, r, nil), nil); rec.Code != 200 {
		t.Fatalf("retried PUT: %d %s", rec.Code, rec.Body.String())
	}
	fb.SetPlan(faultinject.Plan{})
	if _, err := st.ReadRunEvents("delta"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("event log after the retried PUT: err=%v, want ErrNotExist", err)
	}
	var status struct {
		Status string `json:"status"`
	}
	if rec := do(t, s, "GET", "/runs/delta", "", &status); rec.Code != 200 || status.Status != "finished" {
		t.Fatalf("GET after the retried PUT: %d %+v, want the stored run", rec.Code, status)
	}
}

// TestSweepKeepsStreamOnFailedClear pins that the idle-TTL sweep never
// drops a session whose durable state it could not clear: the session
// stays registered and the next sweep expires it.
func TestSweepKeepsStreamOnFailedClear(t *testing.T) {
	s, fb, st := newFaultServer(t, Config{EnableStream: true})
	r, p := run.GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(37)), 70)
	evs := events.Emit(r, p)
	streamRun(t, s, "idle", evs[:len(evs)/2], 16)
	fb.SetPlan(faultinject.Plan{PerOp: map[faultinject.Op]faultinject.Rule{
		faultinject.OpDeleteEventLog: {FailFirst: 1},
	}})
	if expired := s.SweepIdleStreams(1); len(expired) != 0 {
		t.Fatalf("sweep with a failing clear expired %v", expired)
	}
	if s.live.Get("idle") == nil {
		t.Fatal("session dropped although its event log survived")
	}
	if expired := s.SweepIdleStreams(1); len(expired) != 1 || expired[0] != "idle" {
		t.Fatalf("next sweep expired %v, want [idle]", expired)
	}
	if s.live.Get("idle") != nil {
		t.Fatal("expired session still registered")
	}
	if _, err := st.ReadRunEvents("idle"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("expired event log: err=%v, want ErrNotExist", err)
	}
}
