package store_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// TestConcurrentStoreAccess enforces the package's concurrency contract
// under -race: one Store is hit by many goroutines that concurrently
// list runs, open sessions (including the same run repeatedly), and
// hammer reachability and data queries on a shared session.
func TestConcurrentStoreAccess(t *testing.T) {
	dir := t.TempDir()
	s := spec.PaperSpec()
	st, err := store.Create(dir, s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	runNames := []string{"r1", "r2", "r3"}
	for _, name := range runNames {
		r, _ := run.GenerateSized(s, rng, 300)
		if err := st.PutRun(name, r, nil, label.TCM{}); err != nil {
			t.Fatalf("PutRun(%s): %v", name, err)
		}
	}

	// One shared session queried by everyone, checked against ground
	// truth computed up front. BFS makes the skeleton query path exercise
	// the pooled searchers, the scheme most sensitive to data races.
	shared, err := st.OpenRun("r1", label.BFS{})
	if err != nil {
		t.Fatal(err)
	}
	sharedRun := document(t, shared)
	closure, _ := sharedRun.Graph.TransitiveClosure()
	n := sharedRun.NumVertices()

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				// Interleave store-level reads with session queries.
				switch i % 3 {
				case 0:
					names, err := st.Runs()
					if err != nil || len(names) != len(runNames) {
						fail(fmt.Errorf("Runs() = %v, %v", names, err))
						return
					}
				case 1:
					sess, err := st.OpenRun(runNames[rng.Intn(len(runNames))], label.TCM{})
					if err != nil {
						fail(err)
						return
					}
					r, _, err := sess.Document()
					if err != nil {
						fail(err)
						return
					}
					m := r.NumVertices()
					for q := 0; q < 20; q++ {
						sess.Labels.Reachable(dag.VertexID(rng.Intn(m)), dag.VertexID(rng.Intn(m)))
					}
				}
				for q := 0; q < 100; q++ {
					u := dag.VertexID(rng.Intn(n))
					v := dag.VertexID(rng.Intn(n))
					if shared.Labels.Reachable(u, v) != closure.Reachable(u, v) {
						fail(fmt.Errorf("shared session wrong at (%d,%d)", u, v))
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
}

// TestConcurrentPutDistinctRuns checks that PutRun for distinct names
// may run concurrently with reads, per the documented contract.
func TestConcurrentPutDistinctRuns(t *testing.T) {
	dir := t.TempDir()
	s := spec.PaperSpec()
	st, err := store.Create(dir, s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := run.GenerateSized(s, rand.New(rand.NewSource(1)), 200)
	if err := st.PutRun("seed", r0, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _ := run.GenerateSized(s, rand.New(rand.NewSource(int64(g+2))), 150)
			if err := st.PutRun(fmt.Sprintf("w%d", g), r, nil, label.TCM{}); err != nil {
				errs <- err
				return
			}
			if _, err := st.OpenRun("seed", label.TCM{}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	names, err := st.Runs()
	if err != nil || len(names) != 5 {
		t.Fatalf("Runs() = %v, %v", names, err)
	}
}
