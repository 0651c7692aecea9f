package faultinject_test

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/backendtest"
	"repro/internal/store/faultinject"
)

// A fault injector with an empty plan must be invisible: the full
// backend conformance suite over a wrapped mem backend.
func TestZeroFaultConformance(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) store.Backend {
		return faultinject.Wrap(store.NewMemBackend(), faultinject.Plan{})
	})
}

// And composed the way the chaos stack runs it — retry around fault
// around mem — still fully conformant at zero faults.
func TestRetryOverFaultConformance(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) store.Backend {
		return store.WithRetry(
			faultinject.Wrap(store.NewMemBackend(), faultinject.Plan{}),
			store.RetryPolicy{})
	})
}

func readAll(t *testing.T, open func() (io.ReadCloser, error)) []byte {
	t.Helper()
	rc, err := open()
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

func TestInjectedErrorsAreTransientAndSideEffectFree(t *testing.T) {
	inner := store.NewMemBackend()
	fb := faultinject.Wrap(inner, faultinject.Plan{
		Default: faultinject.Rule{FailFirst: 1},
	})
	if err := fb.WriteSpec([]byte("<spec>")); !store.IsTransient(err) {
		t.Fatalf("first WriteSpec = %v, want transient", err)
	}
	if err := fb.WriteSpec([]byte("<spec>")); err != nil {
		t.Fatalf("second WriteSpec = %v", err)
	}

	// Injected append failure left no bytes behind.
	if err := fb.AppendEventLog("live", []byte("a\n")); !store.IsTransient(err) {
		t.Fatalf("first AppendEventLog = %v, want transient", err)
	}
	if _, err := inner.ReadEventLog("live"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("inner log exists after failed append: err=%v", err)
	}
	if err := fb.AppendEventLog("live", []byte("a\n")); err != nil {
		t.Fatalf("retried AppendEventLog = %v", err)
	}
	if got := readAll(t, func() (io.ReadCloser, error) { return inner.ReadEventLog("live") }); string(got) != "a\n" {
		t.Fatalf("log after retry = %q", got)
	}

	// Injected delete failure removed nothing. (WriteRun burns its own
	// FailFirst script first — the Default rule applies per op.)
	if err := fb.WriteRun("r", []byte("d"), []byte("l")); !store.IsTransient(err) {
		t.Fatalf("first WriteRun = %v, want transient", err)
	}
	if err := fb.WriteRun("r", []byte("d"), []byte("l")); err != nil {
		t.Fatal(err)
	}
	if err := fb.DeleteRun("r"); !store.IsTransient(err) {
		t.Fatalf("first DeleteRun = %v, want transient", err)
	}
	if _, err := inner.ReadRun("r"); err != nil {
		t.Fatalf("run vanished after failed delete: %v", err)
	}
	if err := fb.DeleteRun("r"); err != nil {
		t.Fatalf("retried DeleteRun = %v", err)
	}

	counts := fb.Injected()
	for _, op := range []faultinject.Op{faultinject.OpWriteSpec, faultinject.OpAppendEventLog, faultinject.OpDeleteRun} {
		if counts[op] == 0 {
			t.Fatalf("no injected fault counted for %s: %v", op, counts)
		}
	}
}

func TestTornAppendWritesPrefixAndIsNotTransient(t *testing.T) {
	inner := store.NewMemBackend()
	mustInit(t, inner)
	fb := faultinject.Wrap(inner, faultinject.Plan{
		Seed: 42,
		PerOp: map[faultinject.Op]faultinject.Rule{
			faultinject.OpAppendEventLog: {TornRate: 1},
		},
	})
	batch := []byte("event-1\nevent-2\nevent-3\n")
	err := fb.AppendEventLog("live", batch)
	if !errors.Is(err, faultinject.ErrTorn) {
		t.Fatalf("torn append error = %v, want ErrTorn", err)
	}
	if store.IsTransient(err) {
		t.Fatal("torn append classified transient; a blind retry would duplicate the prefix")
	}
	// The prefix is really there: a strict prefix of the batch, visible
	// to a re-read — exactly what crash recovery must cope with.
	var got []byte
	if rc, rerr := inner.ReadEventLog("live"); rerr == nil {
		got, rerr = io.ReadAll(rc)
		rc.Close()
		if rerr != nil {
			t.Fatal(rerr)
		}
	} else if !errors.Is(rerr, fs.ErrNotExist) {
		t.Fatal(rerr)
	}
	if len(got) >= len(batch) {
		t.Fatalf("torn append wrote %d bytes, want a strict prefix of %d", len(got), len(batch))
	}
	if !strings.HasPrefix(string(batch), string(got)) {
		t.Fatalf("torn tail %q is not a prefix of the batch", got)
	}
}

func TestPartialWriteRunKeepsOldDocNewLabels(t *testing.T) {
	inner := store.NewMemBackend()
	mustInit(t, inner)
	if err := inner.WriteRun("r", []byte("old-doc"), []byte("old-labels")); err != nil {
		t.Fatal(err)
	}
	fb := faultinject.Wrap(inner, faultinject.Plan{
		Seed: 7,
		PerOp: map[faultinject.Op]faultinject.Rule{
			faultinject.OpWriteRun: {PartialRate: 1},
		},
	})
	err := fb.WriteRun("r", []byte("new-doc"), []byte("new-labels"))
	if !store.IsTransient(err) {
		t.Fatalf("partial WriteRun = %v, want transient (a retry's overwrite heals it)", err)
	}
	if got := readAll(t, func() (io.ReadCloser, error) { return inner.ReadRun("r") }); string(got) != "old-doc" {
		t.Fatalf("document after partial write = %q, want the old document", got)
	}
	if got := readAll(t, func() (io.ReadCloser, error) { return inner.ReadLabels("r") }); string(got) != "new-labels" {
		t.Fatalf("labels after partial write = %q, want the new labels", got)
	}
	// The heal: a fault-free retry overwrites the whole pair.
	fb.SetPlan(faultinject.Plan{})
	if err := fb.WriteRun("r", []byte("new-doc"), []byte("new-labels")); err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, func() (io.ReadCloser, error) { return inner.ReadRun("r") }); string(got) != "new-doc" {
		t.Fatalf("document after heal = %q", got)
	}

	// A partial write of a brand-new run writes nothing at all (there is
	// no old document to pair the labels with).
	fb.SetPlan(faultinject.Plan{PerOp: map[faultinject.Op]faultinject.Rule{
		faultinject.OpWriteRun: {PartialRate: 1},
	}})
	if err := fb.WriteRun("fresh", []byte("d"), []byte("l")); !store.IsTransient(err) {
		t.Fatalf("partial WriteRun(fresh) = %v, want transient", err)
	}
	if _, err := inner.ReadRun("fresh"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("fresh run materialized after failed partial write: err=%v", err)
	}
}

func TestDeterministicSeeding(t *testing.T) {
	// The same plan over the same call sequence injects the same faults.
	trace := func(seed int64) string {
		fb := faultinject.Wrap(store.NewMemBackend(), faultinject.Plan{
			Seed:    seed,
			Default: faultinject.Rule{ErrRate: 0.5},
		})
		var sb strings.Builder
		for i := 0; i < 64; i++ {
			if err := fb.WriteMeta(".m", []byte("x")); err != nil {
				sb.WriteByte('F')
			} else {
				sb.WriteByte('.')
			}
		}
		return sb.String()
	}
	if trace(3) != trace(3) {
		t.Fatal("same seed produced different fault sequences")
	}
	if trace(3) == trace(4) {
		t.Fatal("different seeds produced identical fault sequences (rate 0.5, 64 trials)")
	}
	if !strings.Contains(trace(3), "F") || !strings.Contains(trace(3), ".") {
		t.Fatalf("rate 0.5 trace has no mix of faults and successes: %q", trace(3))
	}
}

func TestFailFirstScriptAndSetPlanRestart(t *testing.T) {
	fb := faultinject.Wrap(store.NewMemBackend(), faultinject.Plan{
		Default: faultinject.Rule{FailFirst: 2},
	})
	for i := 0; i < 2; i++ {
		if err := fb.WriteSpec([]byte("s")); !store.IsTransient(err) {
			t.Fatalf("call %d = %v, want transient", i, err)
		}
	}
	if err := fb.WriteSpec([]byte("s")); err != nil {
		t.Fatalf("call after script = %v, want success", err)
	}
	// FailFirst counts per op, not globally: ListRuns runs its own
	// 2-failure script even though WriteSpec already burned through one.
	for i := 0; i < 2; i++ {
		if _, err := fb.ListRuns(); !store.IsTransient(err) {
			t.Fatalf("ListRuns call %d = %v, want transient", i, err)
		}
	}
	if _, err := fb.ListRuns(); err != nil {
		t.Fatalf("ListRuns after its script = %v", err)
	}
	// SetPlan restarts the script.
	fb.SetPlan(faultinject.Plan{Default: faultinject.Rule{FailFirst: 1}})
	if err := fb.WriteSpec([]byte("s")); !store.IsTransient(err) {
		t.Fatalf("WriteSpec after SetPlan = %v, want transient (script restarted)", err)
	}
	if err := fb.WriteSpec([]byte("s")); err != nil {
		t.Fatalf("second WriteSpec after SetPlan = %v", err)
	}
}

// WithRetry over fault-injection: the whole point of the pairing — a
// fail-twice script is fully absorbed by a 4-attempt retry budget, and
// a fail-forever plan surfaces a transient error after the budget.
func TestRetryAbsorbsScriptedFaults(t *testing.T) {
	fb := faultinject.Wrap(store.NewMemBackend(), faultinject.Plan{
		Default: faultinject.Rule{FailFirst: 2},
	})
	rb := store.WithRetry(fb, store.RetryPolicy{MaxAttempts: 4, BaseDelay: 1, MaxDelay: 1})
	if err := rb.WriteSpec([]byte("<spec>")); err != nil {
		t.Fatalf("WriteSpec through retry = %v, want absorbed", err)
	}
	st := rb.Stat()
	if st.Kind != "retry" || st.Counters["retries"] < 2 {
		t.Fatalf("retry stats = %+v, want >=2 retries", st)
	}
	if st.Wrapped == nil || st.Wrapped.Kind != "fault" {
		t.Fatalf("retry stats do not wrap fault stats: %+v", st)
	}

	fb.SetPlan(faultinject.Plan{Default: faultinject.Rule{ErrRate: 1}})
	err := rb.WriteSpec([]byte("<spec>"))
	if !store.IsTransient(err) {
		t.Fatalf("WriteSpec under 100%% faults = %v, want transient give-up", err)
	}
	if got := rb.Stat().Counters["giveups"]; got != 1 {
		t.Fatalf("giveups = %d, want 1", got)
	}
}

func TestParsePlan(t *testing.T) {
	plan, err := faultinject.ParsePlan("rate=0.25,seed=9,latency=3ms,failfirst=2")
	if err != nil {
		t.Fatal(err)
	}
	if plan.Seed != 9 || plan.Default.ErrRate != 0.25 || plan.Default.FailFirst != 2 || plan.Default.Latency.Milliseconds() != 3 {
		t.Fatalf("ParsePlan = %+v", plan)
	}
	plan, err = faultinject.ParsePlan("reads=0.5,writes=0.125,torn=0.75,partial=0.0625")
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range faultinject.ReadOps {
		if plan.PerOp[op].ErrRate != 0.5 {
			t.Fatalf("read op %s rate = %v, want 0.5", op, plan.PerOp[op].ErrRate)
		}
	}
	if plan.PerOp[faultinject.OpWriteRun].ErrRate != 0.125 || plan.PerOp[faultinject.OpWriteRun].PartialRate != 0.0625 {
		t.Fatalf("WriteRun rule = %+v", plan.PerOp[faultinject.OpWriteRun])
	}
	if plan.PerOp[faultinject.OpAppendEventLog].TornRate != 0.75 || plan.PerOp[faultinject.OpAppendEventLog].ErrRate != 0.125 {
		t.Fatalf("AppendEventLog rule = %+v", plan.PerOp[faultinject.OpAppendEventLog])
	}
	if _, err := faultinject.ParsePlan("rate=2"); err == nil {
		t.Fatal("ParsePlan accepted rate=2")
	}
	if _, err := faultinject.ParsePlan("bogus=1"); err == nil {
		t.Fatal("ParsePlan accepted an unknown key")
	}
	if _, err := faultinject.ParsePlan("rate"); err == nil {
		t.Fatal("ParsePlan accepted a bare key")
	}
	if plan, err := faultinject.ParsePlan(""); err != nil || plan.Default != (faultinject.Rule{}) {
		t.Fatalf("ParsePlan(\"\") = %+v, %v; want a no-fault plan", plan, err)
	}
}

// fault:// composes through OpenURL around a real fs store.
func TestFaultURLOverFS(t *testing.T) {
	dir := t.TempDir()
	if st, err := store.Create(dir, spec.PaperSpec(), "paper"); err != nil {
		t.Fatal(err)
	} else {
		st.Close()
	}

	st, err := faultinject.OpenURL("fault://seed=5/" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	bst := st.Backend().Stat()
	if bst.Kind != "fault" || bst.Wrapped == nil || bst.Wrapped.Kind != "fs" {
		t.Fatalf("backend stats = %+v, want fault over fs", bst)
	}

	// failfirst=1 through the URL: the very first backend call (the
	// spec read during open) fails, so OpenURL itself reports transient.
	if _, err := faultinject.OpenURL("fault://failfirst=1/fs://" + dir); !store.IsTransient(err) {
		t.Fatalf("OpenURL with failfirst=1 = %v, want transient spec-read failure", err)
	}

	for _, bad := range []string{"fault://", "fault://rate=0.5", "fault://rate=bogus/" + dir} {
		if _, err := faultinject.OpenURL(bad); err == nil {
			t.Fatalf("OpenURL(%q) succeeded, want error", bad)
		}
	}
}

func mustInit(t *testing.T, b store.Backend) {
	t.Helper()
	if err := b.WriteSpec([]byte("<spec>")); err != nil {
		t.Fatal(err)
	}
}

// midDocument breaks run-document reads halfway with a transient error,
// once armed: a stream that fails after its open succeeded, which the
// injector's own faults (fired before the inner call) never produce.
type midDocument struct {
	store.Backend
	armed bool
}

func (b *midDocument) ReadRun(name string) (io.ReadCloser, error) {
	rc, err := b.Backend.ReadRun(name)
	if err != nil || !b.armed {
		return rc, err
	}
	doc, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return nil, err
	}
	broken := store.Transient(errors.New("connection reset mid-document"))
	return io.NopCloser(io.MultiReader(bytes.NewReader(doc[:len(doc)/2]), errReader{broken})), nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// A cache miss whose document read breaks mid-stream must still report
// a transient error through the run decoder, so the serving layer
// retries and trips its breaker instead of calling the run corrupt.
func TestMidDocumentReadFaultStaysTransient(t *testing.T) {
	sp := spec.PaperSpec()
	mid := &midDocument{Backend: store.NewMemBackend()}
	st, err := store.New(faultinject.Wrap(mid, faultinject.Plan{Seed: 1}), sp, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(sp, rand.New(rand.NewSource(1)), 60)
	if err := st.PutRun("r", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenRun("r", label.TCM{}); err != nil {
		t.Fatalf("unarmed OpenRun: %v", err)
	}
	mid.armed = true
	_, err = st.OpenRun("r", label.TCM{})
	if !errors.Is(err, store.ErrTransient) || !store.IsTransient(err) {
		t.Fatalf("OpenRun = %v, want a transient error", err)
	}
	if !strings.HasPrefix(err.Error(), "xmlio: decode run: ") {
		t.Fatalf("OpenRun = %q, want it to come through the run decoder", err)
	}
}
