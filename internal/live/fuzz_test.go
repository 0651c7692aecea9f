package live_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/live"
	"repro/internal/online"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// FuzzReplayVerdict holds the two consumers of an event log to one
// verdict: events.Replay and a live session over a mem store must both
// accept a parsed log or both refuse it, and when both accept, their
// labels must answer Reachable alike on every vertex pair. An accepted
// log also holds the session's record of it to the events: resent
// whole at offset 0 it applies nothing; resent with one field its kind
// carries changed at event at%len it is an ErrConflict at that
// sequence; and a checkpoint is "ckpt <n> <log bytes>" and the log,
// from which Recover rebuilds a session with the same sequence and the
// same answers.
func FuzzReplayVerdict(f *testing.F) {
	s := spec.PaperSpec()
	r, p := run.Figure3Run(s)
	var emitted bytes.Buffer
	if err := events.WriteLog(&emitted, events.Emit(r, p)); err != nil {
		f.Fatal(err)
	}
	f.Add(emitted.String(), uint16(5), uint8(2))
	// A copy started out of sequence: copy 1 was never started.
	f.Add("copy 2 parent 0 hnode 1\n", uint16(0), uint8(0))
	f.Add("copy 1 parent 0 hnode 1\ncopy 1 parent 0 hnode 1\n", uint16(0), uint8(0))
	f.Add("copy 1 parent 0 hnode 1\nexec b copy 1\nexec a copy 0\n", uint16(0), uint8(3))
	f.Add("copy 1 parent 0 hnode 1\nexec b copy 1\nexec a copy 0\n", uint16(2), uint8(2))
	f.Add("exec a copy 0\nexec zz copy 0\n", uint16(0), uint8(0))
	f.Add("exec a copy 3\n", uint16(0), uint8(0))
	st, err := store.NewMem(s, "paper")
	if err != nil {
		f.Fatal(err)
	}
	skel, err := st.Skeleton(label.TCM{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, log string, at uint16, field uint8) {
		evs, err := events.ReadLog(strings.NewReader(log))
		if err != nil {
			return
		}
		l, replayErr := events.Replay(s, skel, evs)
		ls := live.NewSession(st, "fuzz", skel, nil)
		_, appendErr := ls.Append(evs, 0)
		defer func() {
			if _, err := live.DeleteState(st, "fuzz"); err != nil {
				t.Fatal(err)
			}
		}()
		if (replayErr == nil) != (appendErr == nil) {
			t.Fatalf("Replay: %v; Append: %v", replayErr, appendErr)
		}
		if replayErr != nil {
			return
		}
		sameAnswers(t, "session", ls, l)
		if n, err := ls.Append(evs, 0); n != 0 || err != nil {
			t.Fatalf("whole log resent: (%d, %v), want (0, nil)", n, err)
		}
		if len(evs) > 0 {
			i := int(at) % len(evs)
			changed := slices.Clone(evs)
			e := &changed[i]
			switch c := int(field) % 4; {
			case c == 0:
				e.Kind ^= 1
			case c == 1:
				e.Copy++
			case e.Kind == events.ModuleExec:
				e.Module += "x"
			case c == 2:
				e.Parent++
			default:
				e.HNode++
			}
			_, err := ls.Append(changed, 0)
			if want := fmt.Sprintf("differs at sequence %d", i); !errors.Is(err, live.ErrConflict) || !strings.HasSuffix(err.Error(), want) {
				t.Fatalf("event %d changed (%+v to %+v): %v, want ErrConflict %s", i, evs[i], *e, err, want)
			}
		}

		if err := ls.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		rc, err := st.Backend().ReadMeta(live.CheckpointMeta("fuzz"))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		logBytes, err := events.AppendLog(nil, evs)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("ckpt %d %d\n%s", len(evs), len(logBytes), logBytes); string(blob) != want {
			t.Fatalf("checkpoint blob %q, want %q", blob, want)
		}
		rec, err := live.Recover(st, "fuzz", skel, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Seq() != len(evs) {
			t.Fatalf("recovered Seq() = %d, want %d", rec.Seq(), len(evs))
		}
		sameAnswers(t, "recovered session", rec, l)
	})
}

// sameAnswers fails t unless the session has the labeler's vertices and
// answers Reachable as it does on every vertex pair.
func sameAnswers(t *testing.T, what string, ls *live.Session, l *online.Labeler) {
	t.Helper()
	n := l.NumVertices()
	if got := ls.Namer().Len(); got != n {
		t.Fatalf("%s has %d vertices, Replay %d", what, got, n)
	}
	for u := dag.VertexID(0); int(u) < n; u++ {
		for v := dag.VertexID(0); int(v) < n; v++ {
			if ls.Reachable(u, v) != l.Reachable(u, v) {
				t.Fatalf("Reachable(%d, %d): %s %v, Replay %v", u, v, what, ls.Reachable(u, v), l.Reachable(u, v))
			}
		}
	}
}
