package events

import (
	"math/rand"
	"testing"

	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/workload"
)

// TestApplierKeepsNoLargeBatchRecord pins what an applier keeps of the
// batches it applied: after a batch of 24,192 events (a 21,426-vertex
// run), a batch record of at most maxKeptBatch entries per column;
// after a small one, the record's storage for the next batch to reuse.
func TestApplierKeepsNoLargeBatchRecord(t *testing.T) {
	sp := workload.MustStandIn("QBLAST", 1)
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(7)), 20000)
	evs := Emit(r, p)
	skel, err := label.TCM{}.Build(sp.Graph)
	if err != nil {
		t.Fatal(err)
	}
	a := NewApplier(sp, skel)
	apply := func(batch []Event) {
		t.Helper()
		if err := a.Check(batch); err != nil {
			t.Fatal(err)
		}
		a.Apply(batch)
	}
	// Emit starts every copy before the first execution, so the large
	// batch fills both columns of the record and the small one, the
	// last 64 executions, only the origins.
	large := len(evs) - 64
	apply(evs[:large])
	if cap(a.started) > maxKeptBatch || cap(a.origins) > maxKeptBatch {
		t.Fatalf("after a %d-event batch the record keeps capacities %d and %d, want at most %d", large, cap(a.started), cap(a.origins), maxKeptBatch)
	}
	apply(evs[large:])
	if cap(a.origins) == 0 {
		t.Fatal("after a 64-event batch the record keeps no storage for the next one")
	}
}
