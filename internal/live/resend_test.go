package live_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestResendConflicts pins the resend contract on the fields each kind
// of event carries: kind and copy, plus parent and hierarchy node for a
// copy start or the module for an exec. A resend that differs from the
// applied events in exactly one of them, at the first, a middle or the
// last overlapped position that carries it, is an ErrConflict naming
// that position, and nothing of it applies, not even the fresh events
// past the overlap. An identical resend applies 0, and so does one that
// differs only in fields its events' kinds do not use.
func TestResendConflicts(t *testing.T) {
	sp := spec.PaperSpec()
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(43)), 80)
	evs := events.Emit(r, p)
	st, err := store.NewMem(sp, "paper")
	if err != nil {
		t.Fatal(err)
	}
	skel, err := st.Skeleton(label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	// The resends start at from: events from..applied-1 overlap the
	// applied ones, the rest are fresh.
	from, applied := 3, len(evs)-5
	ls := live.NewSession(st, "resend", skel, nil)
	appendAll(t, ls, evs[:applied], 16)

	const anyKind = events.Kind(255)
	for _, f := range []struct {
		field  string
		kind   events.Kind // the kind that carries the field, or anyKind
		change func(*events.Event)
	}{
		{"kind", anyKind, func(e *events.Event) { e.Kind ^= 1 }},
		{"copy", anyKind, func(e *events.Event) { e.Copy++ }},
		{"parent", events.CopyStart, func(e *events.Event) { e.Parent++ }},
		{"hnode", events.CopyStart, func(e *events.Event) { e.HNode++ }},
		{"module", events.ModuleExec, func(e *events.Event) {
			if e.Module == "a" {
				e.Module = "b"
			} else {
				e.Module = "a"
			}
		}},
	} {
		var at []int
		for i := from; i < applied; i++ {
			if f.kind == anyKind || evs[i].Kind == f.kind {
				at = append(at, i)
			}
		}
		if len(at) < 3 {
			t.Fatalf("%s: only %d overlapped events carry it", f.field, len(at))
		}
		for _, i := range []int{at[0], at[len(at)/2], at[len(at)-1]} {
			batch := slices.Clone(evs[from:])
			f.change(&batch[i-from])
			n, err := ls.Append(batch, from)
			want := fmt.Sprintf("%v: batch event %d differs at sequence %d", live.ErrConflict, i-from, i)
			if !errors.Is(err, live.ErrConflict) || err.Error() != want || n != 0 {
				t.Errorf("%s changed at sequence %d: (%d, %v), want (0, %q)", f.field, i, n, err, want)
			}
			if ls.Seq() != applied {
				t.Fatalf("%s changed at sequence %d: Seq() = %d, want %d", f.field, i, ls.Seq(), applied)
			}
		}
	}

	unused := slices.Clone(evs[from:applied])
	for i := range unused {
		if unused[i].Kind == events.CopyStart {
			unused[i].Module = "zz"
		} else {
			unused[i].Parent, unused[i].HNode = 7, 9
		}
	}
	if n, err := ls.Append(unused, from); n != 0 || err != nil {
		t.Fatalf("resend differing in unused fields: (%d, %v), want (0, nil)", n, err)
	}
	if n, err := ls.Append(evs[:applied], 0); n != 0 || err != nil {
		t.Fatalf("identical resend: (%d, %v), want (0, nil)", n, err)
	}
	if n, err := ls.Append(evs[from:], from); n != len(evs)-applied || err != nil || ls.Seq() != len(evs) {
		t.Fatalf("resend with fresh events: (%d, %v) and Seq() %d, want (%d, nil) and %d", n, err, ls.Seq(), len(evs)-applied, len(evs))
	}
}

// TestStreamBytesPerEvent pins what a live stream retains per applied
// event: a QBLAST stand-in run of 96,893 events streamed in 64-event
// appends over a mem store holds at most 90 B/event of heap, the
// store's event log included (about 20 B/event), measured after two
// collections with the inputs kept alive. The session keeps 8 B of
// record per event; the bound sits below what a copy of every applied
// event (48 B and a string pointer each) on top of that would cost.
// Streams that each take one batch whose log is just under
// live.MaxPooledBytes retain no more than the same events appended 64
// at a time: the buffer an append renders into is pooled, not kept by
// the session, so an idle stream pins none of it (one kept per session
// would add about 24 B/event), and the applier drops a batch record
// past 4,096 entries (one kept would add about 4.6 B/event).
func TestStreamBytesPerEvent(t *testing.T) {
	sp := workload.MustStandIn("QBLAST", 1)
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(7)), 100000)
	evs := events.Emit(r, p)
	st, err := store.NewMem(sp, "qblast")
	if err != nil {
		t.Fatal(err)
	}
	skel, err := st.Skeleton(label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	// retained streams evs[:n] into each of streams new sessions, batch
	// events an append, and returns the heap they retain per event.
	var opened int
	retained := func(t *testing.T, streams, n, batch int) float64 {
		before := heap()
		sessions := make([]*live.Session, streams)
		for k := range sessions {
			opened++
			sessions[k] = live.NewSession(st, fmt.Sprintf("stream-%d", opened), skel, nil)
			appendAll(t, sessions[k], evs[:n], batch)
		}
		perEvent := float64(int64(heap()-before)) / float64(streams*n)
		runtime.KeepAlive(evs)
		runtime.KeepAlive(sessions)
		t.Logf("%d streams of %d events in %d-event appends: %.1f B/event retained", streams, n, batch, perEvent)
		return perEvent
	}
	t.Run("64-event appends", func(t *testing.T) {
		if b := retained(t, 1, len(evs), 64); b > 90 {
			t.Fatalf("a stream of %d events retains %.1f B/event, want at most 90", len(evs), b)
		}
	})
	t.Run("one large batch per stream", func(t *testing.T) {
		// large is the longest prefix of evs whose log fits a buffer of
		// at most MaxPooledBytes as AppendLog sizes it.
		large := min(len(evs), live.MaxPooledBytes/26)
		if lg, _ := events.AppendLog(nil, evs[:large]); cap(lg) > live.MaxPooledBytes {
			t.Fatalf("a %d-event batch renders into %d bytes, past the pool's bound", large, cap(lg))
		}
		small := retained(t, 4, large, 64)
		if b := retained(t, 4, large, large); b > small {
			t.Fatalf("streams of one %d-event batch retain %.1f B/event, want at most the %.1f of 64-event appends", large, b, small)
		}
	})
}
