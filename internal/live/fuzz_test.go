package live_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// FuzzReplayVerdict holds the two consumers of an event log to one
// verdict: events.Replay and a live session over a mem store must both
// accept a parsed log or both refuse it, and when both accept, their
// labels must answer Reachable alike on every vertex pair.
func FuzzReplayVerdict(f *testing.F) {
	s := spec.PaperSpec()
	r, p := run.Figure3Run(s)
	var emitted bytes.Buffer
	if err := events.WriteLog(&emitted, events.Emit(r, p)); err != nil {
		f.Fatal(err)
	}
	f.Add(emitted.String())
	// A copy started out of sequence: copy 1 was never started.
	f.Add("copy 2 parent 0 hnode 1\n")
	f.Add("copy 1 parent 0 hnode 1\ncopy 1 parent 0 hnode 1\n")
	f.Add("copy 1 parent 0 hnode 1\nexec b copy 1\nexec a copy 0\n")
	f.Add("exec a copy 0\nexec zz copy 0\n")
	f.Add("exec a copy 3\n")
	st, err := store.NewMem(s, "paper")
	if err != nil {
		f.Fatal(err)
	}
	skel, err := st.Skeleton(label.TCM{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, log string) {
		evs, err := events.ReadLog(strings.NewReader(log))
		if err != nil {
			return
		}
		l, replayErr := events.Replay(s, skel, evs)
		ls := live.NewSession(st, "fuzz", skel, nil)
		_, appendErr := ls.Append(evs, 0)
		if _, err := live.DeleteState(st, "fuzz"); err != nil {
			t.Fatal(err)
		}
		if (replayErr == nil) != (appendErr == nil) {
			t.Fatalf("Replay: %v; Append: %v", replayErr, appendErr)
		}
		if replayErr != nil {
			return
		}
		n := l.NumVertices()
		if got := ls.Namer().Len(); got != n {
			t.Fatalf("session has %d vertices, Replay %d", got, n)
		}
		for u := dag.VertexID(0); int(u) < n; u++ {
			for v := dag.VertexID(0); int(v) < n; v++ {
				if ls.Reachable(u, v) != l.Reachable(u, v) {
					t.Fatalf("Reachable(%d, %d): session %v, Replay %v", u, v, ls.Reachable(u, v), l.Reachable(u, v))
				}
			}
		}
	})
}
