// Package backendtest is the conformance suite for store.Backend
// implementations. Every backend — fs, mem, the wrappers, and any future
// remote/object-store layout — must pass Run against a factory producing
// fresh, empty backends; the suite pins down the parts of the contract
// the Store and the serving layer rely on: blob round-trips, sorted and
// complete listings, fs.ErrNotExist on missing documents (the server's
// 404 path), overwrite semantics, borrowed blobs that stay intact after
// an overwrite or a delete, and safety under concurrent readers and
// writers (meaningful under -race).
package backendtest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// Factory returns a fresh, empty backend for one subtest. The factory is
// called once per subtest, so implementations should root each backend
// in its own t.TempDir() or equivalent.
type Factory func(t *testing.T) store.Backend

// Run exercises the Backend contract against backends from the factory.
func Run(t *testing.T, newBackend Factory) {
	t.Run("MissingSpec", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		if rc, err := b.ReadSpec(); !errors.Is(err, fs.ErrNotExist) {
			if rc != nil {
				rc.Close()
			}
			t.Fatalf("ReadSpec on empty backend = %v, want fs.ErrNotExist", err)
		}
	})

	t.Run("SpecRoundTrip", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		doc := []byte("<spec v=1>")
		if err := b.WriteSpec(doc); err != nil {
			t.Fatal(err)
		}
		if got := read(t, b.ReadSpec); !bytes.Equal(got, doc) {
			t.Fatalf("ReadSpec = %q, want %q", got, doc)
		}
		// WriteSpec overwrites.
		doc2 := []byte("<spec v=2, longer than before>")
		if err := b.WriteSpec(doc2); err != nil {
			t.Fatal(err)
		}
		if got := read(t, b.ReadSpec); !bytes.Equal(got, doc2) {
			t.Fatalf("ReadSpec after overwrite = %q, want %q", got, doc2)
		}
	})

	t.Run("RunRoundTrip", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		doc, labels := []byte("<run alpha>"), []byte{1, 2, 3, 0, 255}
		if err := b.WriteRun("alpha", doc, labels); err != nil {
			t.Fatal(err)
		}
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadRun("alpha") }); !bytes.Equal(got, doc) {
			t.Fatalf("ReadRun = %q, want %q", got, doc)
		}
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadLabels("alpha") }); !bytes.Equal(got, labels) {
			t.Fatalf("ReadLabels = %v, want %v", got, labels)
		}
	})

	t.Run("WriteDoesNotRetainBuffers", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		doc, labels := []byte("stable-doc"), []byte("stable-skl")
		if err := b.WriteRun("r", doc, labels); err != nil {
			t.Fatal(err)
		}
		copy(doc, "XXXXXX")
		copy(labels, "XXXXXX")
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadRun("r") }); string(got) != "stable-doc" {
			t.Fatalf("ReadRun = %q after caller mutated its buffer", got)
		}
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadLabels("r") }); string(got) != "stable-skl" {
			t.Fatalf("ReadLabels = %q after caller mutated its buffer", got)
		}
	})

	t.Run("Overwrite", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		if err := b.WriteRun("r", []byte("old-doc-which-is-long"), []byte("old-labels")); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteRun("r", []byte("new"), []byte("nl")); err != nil {
			t.Fatal(err)
		}
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadRun("r") }); string(got) != "new" {
			t.Fatalf("ReadRun after overwrite = %q", got)
		}
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadLabels("r") }); string(got) != "nl" {
			t.Fatalf("ReadLabels after overwrite = %q", got)
		}
		names, err := b.ListRuns()
		if err != nil || len(names) != 1 {
			t.Fatalf("ListRuns after overwrite = %v, %v", names, err)
		}
	})

	t.Run("BorrowedBlobs", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		const doc, labels = "borrowed-doc", "borrowed-skl"
		for _, name := range []string{"over", "gone"} {
			if err := b.WriteRun(name, []byte(doc), []byte(labels)); err != nil {
				t.Fatal(err)
			}
		}
		// A reader that offers its bytes offers exactly what it streams,
		// before and after the stream is read.
		type loan struct {
			what string
			want string
			lent []byte
		}
		var loans []loan
		for _, name := range []string{"over", "gone"} {
			for _, side := range []struct {
				op   string
				open func(string) (io.ReadCloser, error)
				want string
			}{{"ReadRun", b.ReadRun, doc}, {"ReadLabels", b.ReadLabels, labels}} {
				rc, err := side.open(name)
				if err != nil {
					t.Fatal(err)
				}
				offer, ok := rc.(interface{ Bytes() []byte })
				if !ok {
					rc.Close()
					continue
				}
				what := side.op + "(" + name + ")"
				lent := offer.Bytes()
				streamed, err := io.ReadAll(rc)
				if err != nil {
					t.Fatal(err)
				}
				if string(lent) != side.want || string(streamed) != side.want || string(offer.Bytes()) != side.want {
					t.Fatalf("%s offers %q, streams %q, then offers %q; want %q throughout", what, lent, streamed, offer.Bytes(), side.want)
				}
				rc.Close()
				loans = append(loans, loan{what, side.want, lent})
			}
		}
		// Borrowed bytes never change: not when the name is overwritten
		// (with blobs of the same length, which a backend could be tempted
		// to write in place) and not when it is deleted.
		if err := b.WriteRun("over", []byte("XXXXXXXX-doc"), []byte("XXXXXXXX-skl")); err != nil {
			t.Fatal(err)
		}
		if err := b.DeleteRun("gone"); err != nil {
			t.Fatal(err)
		}
		for _, l := range loans {
			if string(l.lent) != l.want {
				t.Fatalf("%s lent %q, which reads %q after the name was overwritten or deleted", l.what, l.want, l.lent)
			}
		}
	})

	t.Run("ListSortedComplete", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		if names, err := b.ListRuns(); err != nil || len(names) != 0 {
			t.Fatalf("ListRuns on empty backend = %v, %v", names, err)
		}
		// Written out of order; ListRuns must return them sorted.
		for _, name := range []string{"zulu", "alpha", "mike", "bravo-2", "bravo-10"} {
			if err := b.WriteRun(name, []byte("d:"+name), []byte("l:"+name)); err != nil {
				t.Fatal(err)
			}
		}
		names, err := b.ListRuns()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"alpha", "bravo-10", "bravo-2", "mike", "zulu"}
		if fmt.Sprint(names) != fmt.Sprint(want) {
			t.Fatalf("ListRuns = %v, want %v", names, want)
		}
	})

	t.Run("MissingRun", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		if err := b.WriteRun("present", []byte("d"), []byte("l")); err != nil {
			t.Fatal(err)
		}
		for _, probe := range []struct {
			what string
			call func(string) (io.ReadCloser, error)
		}{
			{"ReadRun", b.ReadRun},
			{"ReadLabels", b.ReadLabels},
		} {
			rc, err := probe.call("absent")
			if rc != nil {
				rc.Close()
			}
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s(absent) = %v, want fs.ErrNotExist", probe.what, err)
			}
		}
	})

	t.Run("MetaRoundTrip", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		// Missing meta is ErrNotExist, like a missing run.
		if rc, err := b.ReadMeta(".probe"); !errors.Is(err, fs.ErrNotExist) {
			if rc != nil {
				rc.Close()
			}
			t.Fatalf("ReadMeta on empty backend = %v, want fs.ErrNotExist", err)
		}
		if err := b.WriteMeta(".probe", []byte("one\ntwo")); err != nil {
			t.Fatal(err)
		}
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadMeta(".probe") }); string(got) != "one\ntwo" {
			t.Fatalf("ReadMeta = %q", got)
		}
		// WriteMeta overwrites, and the buffer is not retained.
		doc := []byte("three")
		if err := b.WriteMeta(".probe", doc); err != nil {
			t.Fatal(err)
		}
		copy(doc, "XXXXX")
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadMeta(".probe") }); string(got) != "three" {
			t.Fatalf("ReadMeta after overwrite = %q", got)
		}
		// Meta names must be dot-prefixed and never path specials: a
		// run-shaped name (or "..", which would escape an fs root) is
		// rejected, never silently stored where it could shadow a run.
		for _, bad := range []string{"", ".", "..", "hot", "a/b", ".h t", "../x"} {
			if err := b.WriteMeta(bad, []byte("x")); err == nil {
				t.Fatalf("WriteMeta(%q) accepted an invalid meta name", bad)
			}
		}
		// Metas never leak into run listings.
		if err := b.WriteRun("r", []byte("d"), []byte("l")); err != nil {
			t.Fatal(err)
		}
		names, err := b.ListRuns()
		if err != nil || fmt.Sprint(names) != "[r]" {
			t.Fatalf("ListRuns with meta present = %v, %v", names, err)
		}
	})

	t.Run("WriteVisibilityOrdering", func(t *testing.T) {
		// The labels-before-XML invariant: the moment a reader can see a
		// run's document, its label snapshot must be readable too. The
		// serving layer loads doc-then-labels on every cache miss, so a
		// backend that exposed the document first would surface phantom
		// 500s for runs that are about to be complete.
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		const readers = 4
		start := make(chan struct{})
		errs := make(chan error, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					rc, err := b.ReadRun("v")
					if errors.Is(err, fs.ErrNotExist) {
						continue // not visible yet; poll
					}
					if err != nil {
						errs <- err
						return
					}
					rc.Close()
					// Document observed: labels must exist right now.
					skl, err := readErr(b.ReadLabels("v"))
					if err != nil || string(skl) != "skl-v" {
						//provlint:ignore errwrap assertion text for the conformance harness, err may be nil on content mismatch; never classified via errors.Is
						errs <- fmt.Errorf("run visible but labels = %q, %v", skl, err)
						return
					}
					errs <- nil
					return
				}
			}()
		}
		close(start)
		if err := b.WriteRun("v", []byte("doc-v"), []byte("skl-v")); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("StorePutRunConcurrentDistinct", func(t *testing.T) {
		// The full write path — validation, labeling, snapshot encode,
		// WriteRun — driven concurrently through store.Store for distinct
		// names, with OpenRun readers interleaved. Under -race this is
		// the backend's ingest-concurrency audit; it also checks
		// overwrite of an existing name through the Store layer.
		b := newBackend(t)
		defer b.Close()
		s := spec.PaperSpec()
		st, err := store.New(b, s, "paper")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.PutRun("seed", genRun(t, s, 1, 80), nil, label.TCM{}); err != nil {
			t.Fatal(err)
		}
		const writers = 6
		var wg sync.WaitGroup
		errs := make(chan error, 2*writers)
		fail := func(err error) {
			select {
			case errs <- err:
			default:
			}
		}
		for g := 0; g < writers; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				if err := st.PutRun(fmt.Sprintf("w-%d", g), genRun(t, s, int64(g+2), 100), nil, label.TCM{}); err != nil {
					fail(err)
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					sess, err := st.OpenRun("seed", label.TCM{})
					if err != nil {
						fail(fmt.Errorf("OpenRun(seed) during writes: %w", err))
						return
					}
					r, _, err := sess.Document()
					if err != nil {
						fail(fmt.Errorf("seed document during writes: %w", err))
						return
					}
					if r.NumVertices() == 0 {
						fail(errors.New("seed session is empty"))
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		names, err := st.Runs()
		if err != nil || len(names) != writers+1 {
			t.Fatalf("Runs after concurrent PutRun = %v, %v", names, err)
		}
		// Overwrite through the Store: the new run replaces the old and
		// sessions opened afterwards see the new graph.
		bigger := genRun(t, s, 99, 200)
		if err := st.PutRun("seed", bigger, nil, label.TCM{}); err != nil {
			t.Fatal(err)
		}
		sess, err := st.OpenRun("seed", label.TCM{})
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := sess.Document()
		if err != nil {
			t.Fatal(err)
		}
		if r.NumVertices() != bigger.NumVertices() {
			t.Fatalf("after overwrite: session has %d vertices, want %d",
				r.NumVertices(), bigger.NumVertices())
		}
		if n, err := st.Runs(); err != nil || len(n) != writers+1 {
			t.Fatalf("Runs after overwrite = %v, %v", n, err)
		}
	})

	t.Run("HotListRoundTrip", func(t *testing.T) {
		// The warm-restart hot list rides the meta-blob API end to end
		// through store.Store: saved MRU-first for stored runs, read back
		// in order, absent on a store that never saved one, and pruned of
		// names the store no longer holds — a .hot blob must never keep
		// naming a deleted run.
		b := newBackend(t)
		defer b.Close()
		s := spec.PaperSpec()
		st, err := store.New(b, s, "paper")
		if err != nil {
			t.Fatal(err)
		}
		if names, err := st.ReadHotList(); err != nil || len(names) != 0 {
			t.Fatalf("ReadHotList on fresh store = %v, %v", names, err)
		}
		want := []string{"hot-1", "hot-2", "cold-9"}
		for i, n := range want {
			if err := st.PutRun(n, genRun(t, s, int64(i+1), 60), nil, label.TCM{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.WriteHotList(want); err != nil {
			t.Fatal(err)
		}
		got, err := st.ReadHotList()
		if err != nil || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ReadHotList = %v, %v; want %v", got, err, want)
		}
		if err := st.WriteHotList([]string{"../evil"}); err == nil {
			t.Fatal("WriteHotList accepted an invalid run name")
		}
		// Deleted (or never-stored) names are pruned at write time: after
		// hot-2 is deleted, re-saving the same list must not persist it.
		if err := st.DeleteRun("hot-2"); err != nil {
			t.Fatal(err)
		}
		if err := st.WriteHotList(append(want, "never-stored")); err != nil {
			t.Fatal(err)
		}
		got, err = st.ReadHotList()
		if err != nil || fmt.Sprint(got) != fmt.Sprint([]string{"hot-1", "cold-9"}) {
			t.Fatalf("ReadHotList after delete = %v, %v; want pruned [hot-1 cold-9]", got, err)
		}
	})

	t.Run("DeleteRun", func(t *testing.T) { DeleteRunConformance(t, newBackend) })

	t.Run("EventLog", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)

		// Never appended: reads miss with fs.ErrNotExist, deletes no-op.
		if _, err := readErr(b.ReadEventLog("live")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("ReadEventLog(never-appended) = %v, want fs.ErrNotExist", err)
		}
		if err := b.DeleteEventLog("live"); err != nil {
			t.Fatalf("DeleteEventLog(never-appended) = %v, want nil no-op", err)
		}

		// Appends accumulate in order and do not retain the caller's buffer.
		first := []byte("exec a copy 0\n")
		if err := b.AppendEventLog("live", first); err != nil {
			t.Fatal(err)
		}
		copy(first, "XXXX")
		if err := b.AppendEventLog("live", []byte("exec b copy 0\n")); err != nil {
			t.Fatal(err)
		}
		want := "exec a copy 0\nexec b copy 0\n"
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadEventLog("live") }); string(got) != want {
			t.Fatalf("ReadEventLog after two appends = %q, want %q", got, want)
		}

		// Event logs are invisible to listings and independent of the run
		// pair: a log under a name with no stored run never lists, and
		// writing or deleting the pair leaves the log untouched.
		if names, err := b.ListRuns(); err != nil || len(names) != 0 {
			t.Fatalf("ListRuns with only an event log = %v, %v; want empty", names, err)
		}
		if err := b.WriteRun("live", []byte("doc"), []byte("skl")); err != nil {
			t.Fatal(err)
		}
		if err := b.DeleteRun("live"); err != nil {
			t.Fatal(err)
		}
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadEventLog("live") }); string(got) != want {
			t.Fatalf("ReadEventLog after run delete = %q, want %q (DeleteRun touched the log)", got, want)
		}

		// Delete removes the log; a second delete stays a no-op; a fresh
		// append restarts from empty.
		if err := b.DeleteEventLog("live"); err != nil {
			t.Fatal(err)
		}
		if _, err := readErr(b.ReadEventLog("live")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("ReadEventLog after delete = %v, want fs.ErrNotExist", err)
		}
		if err := b.DeleteEventLog("live"); err != nil {
			t.Fatalf("second DeleteEventLog = %v, want nil no-op", err)
		}
		if err := b.AppendEventLog("live", []byte("fresh\n")); err != nil {
			t.Fatal(err)
		}
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadEventLog("live") }); string(got) != "fresh\n" {
			t.Fatalf("ReadEventLog after restart = %q, want %q", got, "fresh\n")
		}

		// Distinct names never interfere.
		if err := b.AppendEventLog("other", []byte("other-log\n")); err != nil {
			t.Fatal(err)
		}
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadEventLog("live") }); string(got) != "fresh\n" {
			t.Fatalf("ReadEventLog(live) after appending to other = %q", got)
		}
	})

	t.Run("EventLogList", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		// Empty store: an empty listing, not an error (the eager stream
		// recovery scan runs against stores with no live sessions).
		if names, err := b.ListEventLogs(); err != nil || len(names) != 0 {
			t.Fatalf("ListEventLogs on empty backend = %v, %v; want empty", names, err)
		}
		// Runs without logs never list; logs list sorted regardless of
		// append order and independent of whether a run pair exists.
		if err := b.WriteRun("stored-only", []byte("d"), []byte("l")); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"zeta", "alpha", "mid"} {
			if err := b.AppendEventLog(name, []byte("ev:"+name+"\n")); err != nil {
				t.Fatal(err)
			}
		}
		names, err := b.ListEventLogs()
		if err != nil || fmt.Sprint(names) != fmt.Sprint([]string{"alpha", "mid", "zeta"}) {
			t.Fatalf("ListEventLogs = %v, %v; want [alpha mid zeta]", names, err)
		}
		// Deleting a log removes it from the listing; deleting the run
		// pair does not.
		if err := b.DeleteEventLog("mid"); err != nil {
			t.Fatal(err)
		}
		if err := b.DeleteRun("stored-only"); err != nil {
			t.Fatal(err)
		}
		names, err = b.ListEventLogs()
		if err != nil || fmt.Sprint(names) != fmt.Sprint([]string{"alpha", "zeta"}) {
			t.Fatalf("ListEventLogs after deletes = %v, %v; want [alpha zeta]", names, err)
		}
	})

	t.Run("TransientClassification", func(t *testing.T) {
		// Missing-blob errors are the backend's 404 path and must never
		// look retryable: a retry wrapper that backed off on ErrNotExist
		// would turn every cold-cache miss into a full backoff ladder.
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		checks := []struct {
			what string
			err  error
		}{
			{"ReadRun", readOnlyErr(b.ReadRun("absent"))},
			{"ReadLabels", readOnlyErr(b.ReadLabels("absent"))},
			{"ReadEventLog", readOnlyErr(b.ReadEventLog("absent"))},
			{"ReadMeta", readOnlyErr(b.ReadMeta(".absent"))},
			{"DeleteRun", b.DeleteRun("absent")},
		}
		for _, c := range checks {
			if !errors.Is(c.err, fs.ErrNotExist) {
				t.Fatalf("%s(absent) = %v, want fs.ErrNotExist", c.what, c.err)
			}
			if store.IsTransient(c.err) {
				t.Fatalf("%s(absent) error %v classified transient; not-exist must be permanent", c.what, c.err)
			}
		}
		// Successful operations are not errors at all.
		if store.IsTransient(nil) {
			t.Fatal("IsTransient(nil) = true")
		}
	})

	t.Run("Stat", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		if st := b.Stat(); st.Kind == "" {
			t.Fatalf("Stat().Kind is empty: %+v", st)
		}
	})

	t.Run("Concurrent", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		// Seed half the runs, then concurrently write the other half while
		// readers hammer the seeded ones and list throughout: the contract
		// says distinct names never interfere and listings only ever show
		// complete runs.
		const seeded, writers = 8, 8
		for i := 0; i < seeded; i++ {
			name := fmt.Sprintf("seed-%d", i)
			if err := b.WriteRun(name, []byte("doc-"+name), []byte("skl-"+name)); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make(chan error, 2*writers)
		fail := func(err error) {
			select {
			case errs <- err:
			default:
			}
		}
		for g := 0; g < writers; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				name := fmt.Sprintf("new-%d", g)
				if err := b.WriteRun(name, []byte("doc-"+name), []byte("skl-"+name)); err != nil {
					fail(err)
				}
			}()
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					name := fmt.Sprintf("seed-%d", (g+i)%seeded)
					got, err := readErr(b.ReadRun(name))
					if err != nil || string(got) != "doc-"+name {
						//provlint:ignore errwrap assertion text for the conformance harness, err may be nil on content mismatch; never classified via errors.Is
						fail(fmt.Errorf("ReadRun(%s) = %q, %v", name, got, err))
						return
					}
					names, err := b.ListRuns()
					if err != nil || len(names) < seeded {
						//provlint:ignore errwrap assertion text for the conformance harness, err may be nil on content mismatch; never classified via errors.Is
						fail(fmt.Errorf("ListRuns = %d names, %v", len(names), err))
						return
					}
					for _, n := range names {
						if skl, err := readErr(b.ReadLabels(n)); err != nil || string(skl) != "skl-"+n {
							//provlint:ignore errwrap assertion text for the conformance harness, err may be nil on content mismatch; never classified via errors.Is
							fail(fmt.Errorf("listed run %q has labels %q, %v", n, skl, err))
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		names, err := b.ListRuns()
		if err != nil || len(names) != seeded+writers {
			t.Fatalf("final ListRuns = %v, %v", names, err)
		}
	})

	t.Run("CopyPreservesLabelCodecs", func(t *testing.T) {
		// Backends move label snapshots as opaque blobs, so store.Copy
		// must preserve them byte-for-byte whichever codec version wrote
		// them: a replicated store keeps serving SKL1 and SKL2 runs
		// identically.
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		// 300 vertices in 150 contexts, two per context.
		labels := make([]core.Label, 300)
		for i := range labels {
			q := uint32(i/2 + 1)
			labels[i] = core.Label{Q1: q, Q2: 151 - q, Q3: q, Orig: dag.VertexID(i % 7)}
		}
		snap, err := core.NewSnapshot(150, 7, labels)
		if err != nil {
			t.Fatal(err)
		}
		var skl2 bytes.Buffer
		if _, err := snap.WriteTo(&skl2); err != nil {
			t.Fatal(err)
		}
		// No writer emits SKL1 any more; this blob is one by hand:
		// uvarint magic "SKL1", count 2, numPositioned 2, numSpec 2,
		// then the labels (1,2,1,0) and (2,1,2,1).
		skl1 := []byte{0xb1, 0x98, 0xad, 0x9a, 0x05, 2, 2, 2, 1, 2, 1, 0, 2, 1, 2, 1}
		blobs := map[string]struct {
			data    []byte
			version core.SnapshotVersion
			labels  []core.Label
		}{
			"run-SKL1": {skl1, core.SnapshotV1, []core.Label{{Q1: 1, Q2: 2, Q3: 1, Orig: 0}, {Q1: 2, Q2: 1, Q3: 2, Orig: 1}}},
			"run-SKL2": {skl2.Bytes(), core.SnapshotV2, labels},
		}
		for name, blob := range blobs {
			if err := b.WriteRun(name, []byte("<run "+name+">"), blob.data); err != nil {
				t.Fatal(err)
			}
		}
		dst := store.NewMemBackend()
		defer dst.Close()
		if err := store.Copy(dst, b); err != nil {
			t.Fatalf("Copy: %v", err)
		}
		for name, want := range blobs {
			got := read(t, func() (io.ReadCloser, error) { return dst.ReadLabels(name) })
			if !bytes.Equal(got, want.data) {
				t.Fatalf("%s: copied snapshot is not byte-identical", name)
			}
			decoded, err := core.DecodeSnapshot(got)
			if err != nil {
				t.Fatalf("%s: copied snapshot does not decode: %v", name, err)
			}
			if decoded.Version != want.version {
				t.Fatalf("%s: copied snapshot decodes as %v", name, decoded.Version)
			}
			labels := make([]core.Label, decoded.NumVertices())
			for v := range labels {
				labels[v] = decoded.Label(dag.VertexID(v))
			}
			if !slices.Equal(labels, want.labels) {
				t.Fatalf("%s: labels changed across Copy", name)
			}
		}
	})

	t.Run("Close", func(t *testing.T) {
		b := newBackend(t)
		mustInit(t, b)
		if err := b.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// DeleteRunConformance pins the Backend delete contract — the last CRUD
// edge: delete makes both blobs unreadable (fs.ErrNotExist, the
// server's 404) and shrinks ListRuns; deleting a missing name is
// ErrNotExist, not a success and not a 500-shaped error; a deleted name
// can be re-written and served again; and mid-delete visibility honors
// the document-before-labels ordering (a reader that can still see the
// document can still read the labels — the mirror of WriteRun's
// labels-before-document ordering). Run invokes it as the "DeleteRun"
// subtest; it is exported so future backends can be audited directly.
func DeleteRunConformance(t *testing.T, newBackend Factory) {
	t.Run("Lifecycle", func(t *testing.T) {
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		if err := b.DeleteRun("never-written"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("DeleteRun(never-written) = %v, want fs.ErrNotExist", err)
		}
		for _, name := range []string{"alpha", "beta", "gamma"} {
			if err := b.WriteRun(name, []byte("d:"+name), []byte("l:"+name)); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.DeleteRun("beta"); err != nil {
			t.Fatalf("DeleteRun(beta) = %v", err)
		}
		for _, probe := range []struct {
			what string
			call func(string) (io.ReadCloser, error)
		}{
			{"ReadRun", b.ReadRun},
			{"ReadLabels", b.ReadLabels},
		} {
			rc, err := probe.call("beta")
			if rc != nil {
				rc.Close()
			}
			if !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("%s(beta) after delete = %v, want fs.ErrNotExist", probe.what, err)
			}
		}
		names, err := b.ListRuns()
		if err != nil || fmt.Sprint(names) != fmt.Sprint([]string{"alpha", "gamma"}) {
			t.Fatalf("ListRuns after delete = %v, %v; want [alpha gamma]", names, err)
		}
		// Delete is not idempotent-silent: the second delete reports the
		// name is gone, exactly like deleting a name never written.
		if err := b.DeleteRun("beta"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("second DeleteRun(beta) = %v, want fs.ErrNotExist", err)
		}
		// The name is free for reuse: re-put works and reads back whole.
		if err := b.WriteRun("beta", []byte("d2:beta"), []byte("l2:beta")); err != nil {
			t.Fatal(err)
		}
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadRun("beta") }); string(got) != "d2:beta" {
			t.Fatalf("ReadRun after re-put = %q", got)
		}
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadLabels("beta") }); string(got) != "l2:beta" {
			t.Fatalf("ReadLabels after re-put = %q", got)
		}
		if names, err := b.ListRuns(); err != nil || len(names) != 3 {
			t.Fatalf("ListRuns after re-put = %v, %v", names, err)
		}
		// Untouched runs are unaffected throughout.
		if got := read(t, func() (io.ReadCloser, error) { return b.ReadLabels("alpha") }); string(got) != "l:alpha" {
			t.Fatalf("ReadLabels(alpha) after unrelated delete = %q", got)
		}
	})

	t.Run("VisibilityOrdering", func(t *testing.T) {
		// The delete-side twin of WriteVisibilityOrdering: while the
		// document remains readable, the labels must be too — the pair
		// may only become unreadable document-first.
		b := newBackend(t)
		defer b.Close()
		mustInit(t, b)
		if err := b.WriteRun("v", []byte("doc-v"), []byte("skl-v")); err != nil {
			t.Fatal(err)
		}
		const readers = 4
		start := make(chan struct{})
		errs := make(chan error, readers)
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for {
					rc, err := b.ReadRun("v")
					if errors.Is(err, fs.ErrNotExist) {
						errs <- nil // delete observed; run vanished whole
						return
					}
					if err != nil {
						errs <- err
						return
					}
					rc.Close()
					// Document was visible: labels must be readable — unless
					// the delete completed wholesale between the two reads,
					// which a re-probe of the document distinguishes (the
					// ordering is violated only if the document is *still*
					// readable while the labels are not).
					skl, err := readErr(b.ReadLabels("v"))
					if errors.Is(err, fs.ErrNotExist) {
						if rc2, err2 := b.ReadRun("v"); errors.Is(err2, fs.ErrNotExist) {
							errs <- nil // delete landed between the reads
							return
						} else if err2 == nil {
							rc2.Close()
							errs <- fmt.Errorf("document readable but labels already gone")
							return
						} else {
							errs <- err2
							return
						}
					}
					if err != nil || string(skl) != "skl-v" {
						//provlint:ignore errwrap assertion text for the conformance harness, err may be nil on content mismatch; never classified via errors.Is
						errs <- fmt.Errorf("run still visible but labels = %q, %v", skl, err)
						return
					}
				}
			}()
		}
		close(start)
		if err := b.DeleteRun("v"); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	})

	t.Run("StoreDeleteRun", func(t *testing.T) {
		// The Store layer on top: validation up front, delete → open is
		// ErrNotExist → listing shrinks → re-put serves again, and a
		// store.Copy racing deletes skips vanished runs instead of
		// failing the whole replication.
		b := newBackend(t)
		defer b.Close()
		s := spec.PaperSpec()
		st, err := store.New(b, s, "paper")
		if err != nil {
			t.Fatal(err)
		}
		if err := st.DeleteRun("../evil"); err == nil {
			t.Fatal("Store.DeleteRun accepted an invalid run name")
		}
		for i, name := range []string{"keep", "drop"} {
			if err := st.PutRun(name, genRun(t, s, int64(i+1), 80), nil, label.TCM{}); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.DeleteRun("drop"); err != nil {
			t.Fatal(err)
		}
		if _, err := st.OpenRun("drop", label.TCM{}); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("OpenRun after delete = %v, want fs.ErrNotExist", err)
		}
		if names, err := st.Runs(); err != nil || fmt.Sprint(names) != "[keep]" {
			t.Fatalf("Runs after delete = %v, %v", names, err)
		}
		if err := st.DeleteRun("drop"); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("Store.DeleteRun of a deleted run = %v, want fs.ErrNotExist", err)
		}
		reput := genRun(t, s, 9, 120)
		if err := st.PutRun("drop", reput, nil, label.TCM{}); err != nil {
			t.Fatal(err)
		}
		sess, err := st.OpenRun("drop", label.TCM{})
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := sess.Document()
		if err != nil {
			t.Fatal(err)
		}
		if r.NumVertices() != reput.NumVertices() {
			t.Fatalf("re-put session has %d vertices, want %d", r.NumVertices(), reput.NumVertices())
		}
		// Copy tolerates a run deleted between the listing and its read.
		dst := store.NewMemBackend()
		defer dst.Close()
		if err := store.Copy(dst, deleteDuringCopy{Backend: b, name: "drop"}); err != nil {
			t.Fatalf("Copy with mid-copy delete: %v", err)
		}
		names, err := dst.ListRuns()
		if err != nil || fmt.Sprint(names) != "[keep]" {
			t.Fatalf("copied runs = %v, %v; want [keep] (deleted run skipped)", names, err)
		}
	})
}

// deleteDuringCopy makes one run vanish the moment Copy tries to read
// it, simulating a retention sweep deleting a listed run mid-copy.
type deleteDuringCopy struct {
	store.Backend
	name string
}

func (d deleteDuringCopy) ReadRun(name string) (io.ReadCloser, error) {
	if name == d.name {
		d.Backend.DeleteRun(name)
	}
	return d.Backend.ReadRun(name)
}

// genRun generates a deterministic run of the spec for write-path tests.
func genRun(t *testing.T, s *spec.Spec, seed int64, size int) *run.Run {
	t.Helper()
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(seed)), size)
	return r
}

// mustInit writes a placeholder spec so run operations act on an
// initialized backend (fs backends create their layout in WriteSpec).
func mustInit(t *testing.T, b store.Backend) {
	t.Helper()
	if err := b.WriteSpec([]byte("<spec>")); err != nil {
		t.Fatal(err)
	}
}

func read(t *testing.T, open func() (io.ReadCloser, error)) []byte {
	t.Helper()
	data, err := readErr(open())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// readOnlyErr discards the reader and keeps the error, for probes that
// only care about classification.
func readOnlyErr(rc io.ReadCloser, err error) error {
	if rc != nil {
		rc.Close()
	}
	return err
}

func readErr(rc io.ReadCloser, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}
