package live_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

// newPaperStream returns a mem store for the paper spec plus the
// Figure 3 run's event stream and the run itself.
func newPaperStream(t *testing.T) (*store.Store, label.Labeling, []events.Event, *run.Run) {
	t.Helper()
	s := spec.PaperSpec()
	r, p := run.Figure3Run(s)
	st, err := store.NewMem(s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	skel, err := st.Skeleton(label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	return st, skel, events.Emit(r, p), r
}

// appendAll streams evs into the session in batches of batch events.
func appendAll(t *testing.T, ls *live.Session, evs []events.Event, batch int) {
	t.Helper()
	for off := 0; off < len(evs); off += batch {
		end := off + batch
		if end > len(evs) {
			end = len(evs)
		}
		n, err := ls.Append(evs[off:end], off)
		if err != nil {
			t.Fatalf("Append(offset=%d): %v", off, err)
		}
		if n != end-off {
			t.Fatalf("Append(offset=%d) applied %d events, want %d", off, n, end-off)
		}
	}
}

func readBlob(t *testing.T, rc io.ReadCloser, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFinishMatchesDirectPut pins the tentpole guarantee: a run
// streamed event-by-event and finished produces byte-identical stored
// blobs to the same run ingested directly, and the finish cleans up the
// event log and checkpoint.
func TestFinishMatchesDirectPut(t *testing.T) {
	st, skel, evs, r := newPaperStream(t)
	ls := live.NewSession(st, "streamed", skel, nil)
	appendAll(t, ls, evs, 3)
	if err := ls.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	sess, err := ls.Finish(label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	fin, _, err := sess.Document()
	if err != nil {
		t.Fatal(err)
	}
	if fin.NumVertices() != r.NumVertices() {
		t.Fatalf("finished run has %d vertices, want %d", fin.NumVertices(), r.NumVertices())
	}
	if err := st.PutRun("direct", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	for _, blob := range []struct {
		name string
		read func(string) (io.ReadCloser, error)
	}{
		{"run", st.Backend().ReadRun},
		{"labels", st.Backend().ReadLabels},
	} {
		rcA, errA := blob.read("streamed")
		rcB, errB := blob.read("direct")
		a := readBlob(t, rcA, errA)
		b := readBlob(t, rcB, errB)
		if !bytes.Equal(a, b) {
			t.Errorf("stored %s blob differs between streamed and direct ingest", blob.name)
		}
	}
	if _, err := st.ReadRunEvents("streamed"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("event log survived finish: err=%v", err)
	}
	if rc, err := st.Backend().ReadMeta(live.CheckpointMeta("streamed")); err == nil {
		if data := readBlob(t, rc, nil); len(data) != 0 {
			t.Errorf("checkpoint survived finish: %d bytes", len(data))
		}
	}
}

// TestLiveQueriesMatchFinished checks mid-flight answers: once every
// event is applied (but before finish), reachability, cones and names
// agree with the finished run's labeling.
func TestLiveQueriesMatchFinished(t *testing.T) {
	st, skel, evs, _ := newPaperStream(t)
	ls := live.NewSession(st, "q", skel, nil)
	appendAll(t, ls, evs, 1)
	sess, err := ls.Finish(label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	fin, _, err := sess.Document()
	if err != nil {
		t.Fatal(err)
	}
	n := fin.NumVertices()
	if ls.Namer().Len() != n {
		t.Fatalf("live session has %d vertices, finished run %d", ls.Namer().Len(), n)
	}
	nm := run.NewNamer(fin)
	for v := 0; v < n; v++ {
		if got, want := ls.Namer().Name(dag.VertexID(v)), nm.Name(dag.VertexID(v)); got != want {
			t.Fatalf("vertex %d named %q live, %q finished", v, got, want)
		}
		if got, ok := ls.Namer().Vertex(nm.Name(dag.VertexID(v))); !ok || got != dag.VertexID(v) {
			t.Fatalf("Vertex(%q) = %d, %v", nm.Name(dag.VertexID(v)), got, ok)
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if got, want := ls.Reachable(dag.VertexID(u), dag.VertexID(v)), sess.Labels.Reachable(dag.VertexID(u), dag.VertexID(v)); got != want {
				t.Errorf("Reachable(%d,%d) = %v live, %v stored", u, v, got, want)
			}
		}
	}
}

// TestLiveNamesCollide streams a QBLAST stand-in run, whose module
// names extend each other (v4, v47), so some occurrence names collide
// ("v471" is v4's 71st and v47's 1st). Every name must resolve live to
// the vertex it resolves to on the finished run, and every vertex must
// bear the same name on both.
func TestLiveNamesCollide(t *testing.T) {
	sp, err := workload.StandIn("QBLAST", 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.NewMem(sp, "qblast")
	if err != nil {
		t.Fatal(err)
	}
	skel, err := st.Skeleton(label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(4)), 1000)
	ls := live.NewSession(st, "qblast", skel, nil)
	appendAll(t, ls, events.Emit(r, p), 256)
	fin, err := ls.MaterializedRun()
	if err != nil {
		t.Fatal(err)
	}
	want, got := run.NewNamer(fin), ls.Namer()
	if got.Len() != fin.NumVertices() {
		t.Fatalf("live session named %d vertices, finished run has %d", got.Len(), fin.NumVertices())
	}
	collisions := 0
	for v := 0; v < fin.NumVertices(); v++ {
		name := want.Name(dag.VertexID(v))
		if live := got.Name(dag.VertexID(v)); live != name {
			t.Fatalf("vertex %d named %q live, %q finished", v, live, name)
		}
		wv, _ := want.Vertex(name)
		if lv, ok := got.Vertex(name); !ok || lv != wv {
			t.Fatalf("Vertex(%q) = %d,%v live, %d finished", name, lv, ok, wv)
		}
		if wv != dag.VertexID(v) {
			collisions++
		}
	}
	if collisions == 0 {
		t.Fatal("no occurrence names collide: the run does not exercise the collision rule")
	}
}

// TestByContextOfflineOnlineAgree checks that the stored labels and the
// live ones decide the same queries by their contexts, through the one
// Lemma 4.5 rule (order.Context) on dense positions and on sparse keys,
// and answer them alike: on sampled pairs of a streamed run of every
// Table-1 stand-in, core.Labeling's AnsweredByContext and Reachable
// equal the session's ByContext and Reachable.
func TestByContextOfflineOnlineAgree(t *testing.T) {
	for _, w := range workload.RealWorkflows() {
		sp := workload.MustStandIn(w.Name, 1)
		st, err := store.NewMem(sp, w.Name)
		if err != nil {
			t.Fatal(err)
		}
		skel, err := st.Skeleton(label.TCM{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		r, p := run.GenerateSized(sp, rng, 800)
		ls := live.NewSession(st, w.Name, skel, nil)
		appendAll(t, ls, events.Emit(r, p), 256)
		l, err := core.LabelRunWithPlan(r, p, skel)
		if err != nil {
			t.Fatal(err)
		}
		n, decided := r.NumVertices(), 0
		for range 4000 {
			u, v := dag.VertexID(rng.Intn(n)), dag.VertexID(rng.Intn(n))
			if got, want := ls.ByContext(u, v), l.AnsweredByContext(u, v); got != want {
				t.Fatalf("%s: ByContext(%d, %d) is %v live, %v stored", w.Name, u, v, got, want)
			}
			if got, want := ls.Reachable(u, v), l.Reachable(u, v); got != want {
				t.Fatalf("%s: Reachable(%d, %d) is %v live, %v stored", w.Name, u, v, got, want)
			}
			if l.AnsweredByContext(u, v) {
				decided++
			}
		}
		if decided == 0 {
			t.Fatalf("%s: no sampled pair is decided by its contexts", w.Name)
		}
	}
}

// TestAppendAllocsFlat pins that recording a module execution costs no
// allocation of its own: a batch of n executions into the started root
// copy allocates only for the amortized growth of the session's tables.
func TestAppendAllocsFlat(t *testing.T) {
	st, skel, _, _ := newPaperStream(t)
	sp := st.Spec()
	allocs := func(n int) float64 {
		batch := make([]events.Event, n)
		for i := range batch {
			batch[i] = events.Event{Kind: events.ModuleExec, Module: sp.NameOf(dag.VertexID(i % sp.NumVertices()))}
		}
		ls := live.NewSession(st, fmt.Sprintf("flat%d", n), skel, nil)
		return testing.AllocsPerRun(4, func() {
			if _, err := ls.Append(batch, ls.Seq()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(1024)
	if large-small > (1024-16)/8 {
		t.Fatalf("Append allocs grow with the batch: %v for 16 executions, %v for 1024", small, large)
	}
}

// TestAppendResume pins the offset protocol: an identical resend is a
// no-op, a partial overlap applies only the surplus, a gap and a
// mismatched overlap are refused with nothing applied.
func TestAppendResume(t *testing.T) {
	st, skel, evs, _ := newPaperStream(t)
	ls := live.NewSession(st, "resume", skel, nil)
	if _, err := ls.Append(evs[:4], 0); err != nil {
		t.Fatal(err)
	}
	// Identical resend: 0 applied.
	if n, err := ls.Append(evs[:4], 0); err != nil || n != 0 {
		t.Fatalf("resend: applied=%d err=%v, want 0, nil", n, err)
	}
	// Overlapping resume: only the surplus lands.
	if n, err := ls.Append(evs[2:6], 2); err != nil || n != 2 {
		t.Fatalf("overlap: applied=%d err=%v, want 2, nil", n, err)
	}
	if ls.Seq() != 6 {
		t.Fatalf("Seq() = %d, want 6", ls.Seq())
	}
	// Gap: offset beyond seq.
	if _, err := ls.Append(evs[8:], 8); !errors.Is(err, live.ErrGap) {
		t.Fatalf("gap: err=%v, want ErrGap", err)
	}
	// Conflict: overlap region resent with different events.
	if _, err := ls.Append(evs[1:7], 0); !errors.Is(err, live.ErrConflict) {
		t.Fatalf("conflict: err=%v, want ErrConflict", err)
	}
	if ls.Seq() != 6 {
		t.Fatalf("Seq() after refused appends = %d, want 6", ls.Seq())
	}
}

// TestAppendRejectsBadEvents pins the prevalidation: hostile batches
// are refused atomically with an *EventError.
func TestAppendRejectsBadEvents(t *testing.T) {
	st, skel, evs, _ := newPaperStream(t)
	for _, tc := range []struct {
		name string
		bad  events.Event
	}{
		{"unknown module", events.Event{Kind: events.ModuleExec, Module: "nosuch", Copy: 0}},
		{"unknown copy", events.Event{Kind: events.ModuleExec, Module: evs[len(evs)-1].Module, Copy: 99}},
		{"sparse copy id", events.Event{Kind: events.CopyStart, Copy: 7, Parent: 0, HNode: 1}},
		{"bad hierarchy parent", events.Event{Kind: events.CopyStart, Copy: 1, Parent: 0, HNode: 0}},
	} {
		ls := live.NewSession(st, "bad", skel, nil)
		var evErr *live.EventError
		if _, err := ls.Append([]events.Event{tc.bad}, 0); !errors.As(err, &evErr) {
			t.Errorf("%s: err=%v, want *EventError", tc.name, err)
		}
		if ls.Seq() != 0 {
			t.Errorf("%s: Seq() = %d after refused batch", tc.name, ls.Seq())
		}
	}
}

// TestRecover replays checkpoint + tail and continues identically.
func TestRecover(t *testing.T) {
	st, skel, evs, _ := newPaperStream(t)
	ls := live.NewSession(st, "rec", skel, nil)
	mid := len(evs) / 2
	appendAll(t, ls, evs[:mid], 3)
	if err := ls.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for off := mid; off < len(evs)-2; off += 2 {
		end := off + 2
		if _, err := ls.Append(evs[off:end], off); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the in-memory session; rebuild from store.
	rec, err := live.Recover(st, "rec", skel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Seq() != ls.Seq() {
		t.Fatalf("recovered Seq() = %d, want %d", rec.Seq(), ls.Seq())
	}
	if rec.CheckpointSeq() != mid {
		t.Fatalf("recovered CheckpointSeq() = %d, want %d", rec.CheckpointSeq(), mid)
	}
	// The recovered session accepts the rest of the stream and finishes.
	if _, err := rec.Append(evs[rec.Seq():], rec.Seq()); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Finish(label.TCM{}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverTornTail simulates a crashed append: a partial final
// record in the log must be skipped, checkpointed over, and later
// appends and recoveries must keep working.
func TestRecoverTornTail(t *testing.T) {
	st, skel, evs, _ := newPaperStream(t)
	ls := live.NewSession(st, "torn", skel, nil)
	mid := len(evs) - 4
	appendAll(t, ls, evs[:mid], 5)
	// A crash mid-append leaves a prefix of the batch: one complete
	// record plus a torn line with no newline.
	var partial bytes.Buffer
	if err := events.WriteLog(&partial, evs[mid:mid+1]); err != nil {
		t.Fatal(err)
	}
	partial.WriteString("exec b cop")
	if err := st.AppendRunEvents("torn", partial.Bytes()); err != nil {
		t.Fatal(err)
	}
	rec, err := live.Recover(st, "torn", skel, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The complete line replayed, the torn line did not.
	if rec.Seq() != mid+1 {
		t.Fatalf("recovered Seq() = %d, want %d", rec.Seq(), mid+1)
	}
	// The torn bytes were checkpointed over, so the client's retry of
	// the batch resumes cleanly and later recoveries see no garbage.
	if rec.CheckpointSeq() != mid+1 {
		t.Fatalf("CheckpointSeq() = %d, want %d (torn tail must be checkpointed over)", rec.CheckpointSeq(), mid+1)
	}
	if _, err := rec.Append(evs[mid:], mid); err != nil {
		t.Fatal(err)
	}
	rec2, err := live.Recover(st, "torn", skel, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Seq() != len(evs) {
		t.Fatalf("second recovery Seq() = %d, want %d", rec2.Seq(), len(evs))
	}
	if _, err := rec2.Finish(label.TCM{}); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverNothing: a run never streamed to is fs.ErrNotExist.
func TestRecoverNothing(t *testing.T) {
	st, skel, _, _ := newPaperStream(t)
	if _, err := live.Recover(st, "ghost", skel, nil); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err=%v, want fs.ErrNotExist", err)
	}
}

// TestFinishIncomplete: finishing before every fork/loop site has a
// copy is refused with *IncompleteError and the session stays usable.
func TestFinishIncomplete(t *testing.T) {
	st, skel, evs, _ := newPaperStream(t)
	ls := live.NewSession(st, "inc", skel, nil)
	mid := len(evs) / 3
	appendAll(t, ls, evs[:mid], 4)
	var inc *live.IncompleteError
	if _, err := ls.Finish(label.TCM{}); !errors.As(err, &inc) {
		t.Fatalf("Finish on partial stream: err=%v, want *IncompleteError", err)
	}
	// Still appendable; completing the stream makes it finishable.
	if _, err := ls.Append(evs[mid:], mid); err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Finish(label.TCM{}); err != nil {
		t.Fatal(err)
	}
}

// A finished stream has no received bytes to keep: its stored document
// is exactly the canonical encoding of its materialized run. The store
// call Finish makes validates the run, so a run that fails run.Validate
// is refused and nothing is written.
func TestFinishStoresCanonicalDocument(t *testing.T) {
	st, skel, evs, _ := newPaperStream(t)
	ls := live.NewSession(st, "canon", skel, nil)
	appendAll(t, ls, evs, 5)
	r, err := ls.MaterializedRun()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ls.Finish(label.TCM{}); err != nil {
		t.Fatal(err)
	}
	rc, err := st.Backend().ReadRun("canon")
	stored := readBlob(t, rc, err)
	var canonical bytes.Buffer
	if err := xmlio.EncodeRun(&canonical, r, nil, st.SpecName()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stored, canonical.Bytes()) {
		t.Fatalf("finished stream stored\n%s\nwant its canonical encoding\n%s", stored, canonical.Bytes())
	}

	// Closing the run's sink back to its source makes a cycle.
	src, snk, err := r.Graph.FlowNetworkTerminals()
	if err != nil {
		t.Fatal(err)
	}
	cyclic := dag.FromEdges(r.NumVertices(), append(r.Graph.Edges(), dag.Edge{Tail: snk, Head: src}))
	bad := &run.Run{Spec: r.Spec, Graph: cyclic, Origin: r.Origin}
	if bad.Validate() == nil {
		t.Fatal("the corrupted run validates")
	}
	if _, err := st.PutRunSession("bad", bad, nil, nil, label.TCM{}); err == nil {
		t.Fatal("PutRunSession stored a run that fails run.Validate")
	}
	if _, err := st.Backend().ReadRun("bad"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("a refused run left a document behind: err=%v", err)
	}
}

// TestRegistryGauges pins the registry bookkeeping healthz reports.
func TestRegistryGauges(t *testing.T) {
	st, skel, evs, _ := newPaperStream(t)
	reg := live.NewRegistry()
	ls := live.NewSession(st, "g", skel, reg.Gauges())
	reg.Put("g", ls)
	appendAll(t, ls, evs, 4)
	stats := reg.Stats()
	if stats.Open != 1 {
		t.Errorf("Open = %d, want 1", stats.Open)
	}
	if stats.Events != int64(len(evs)) {
		t.Errorf("Events = %d, want %d", stats.Events, len(evs))
	}
	if err := ls.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Stats(); got.Checkpoints != 1 {
		t.Errorf("after checkpoint: checkpoints=%d, want 1", got.Checkpoints)
	}
	if reg.Remove("g") != ls {
		t.Error("Remove returned wrong session")
	}
	if got := reg.Stats(); got.Open != 0 {
		t.Errorf("Open after Remove = %d, want 0", got.Open)
	}
	if names := reg.Names(); len(names) != 0 {
		t.Errorf("Names after Remove = %v", names)
	}
}
