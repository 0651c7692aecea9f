package store_test

import (
	"math/rand"
	"testing"

	"repro/internal/label"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/workload"
)

// benchBackends enumerates the substrates the CI bench smoke tracks, so
// an fs- or mem-specific regression shows up in the perf trajectory.
var benchBackends = []struct {
	kind string
	open func(b *testing.B, s *spec.Spec) *store.Store
}{
	{"fs", func(b *testing.B, s *spec.Spec) *store.Store {
		st, err := store.Create(b.TempDir(), s, "bench")
		if err != nil {
			b.Fatal(err)
		}
		return st
	}},
	{"mem", func(b *testing.B, s *spec.Spec) *store.Store {
		st, err := store.NewMem(s, "bench")
		if err != nil {
			b.Fatal(err)
		}
		return st
	}},
}

func benchSpecAndRun(b *testing.B) (*spec.Spec, *run.Run, *provdata.Annotation) {
	b.Helper()
	s := spec.PaperSpec()
	rng := rand.New(rand.NewSource(1))
	r, _ := run.GenerateSized(s, rng, 1000)
	ann := provdata.RandomItems(r, rng, 1.2, 0.3)
	return s, r, ann
}

// BenchmarkStorePutRun measures the full ingest path — validation,
// labeling (cached skeleton), XML + snapshot encoding, backend write —
// per backend kind.
func BenchmarkStorePutRun(b *testing.B) {
	for _, bk := range benchBackends {
		b.Run(bk.kind, func(b *testing.B) {
			s, r, ann := benchSpecAndRun(b)
			st := bk.open(b, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.PutRun("r1", r, ann, label.TCM{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreOpenRun measures the session load path per backend kind.
// "labels" is what a query-server cache miss pays: read both blobs,
// decode the snapshot, bind it to the cached skeleton labeling. Its
// "document" twin adds the first Document call, the run XML decode that
// path queries and run statistics pay on top.
func BenchmarkStoreOpenRun(b *testing.B) {
	for _, bk := range benchBackends {
		b.Run(bk.kind, func(b *testing.B) {
			s, r, ann := benchSpecAndRun(b)
			st := bk.open(b, s)
			if err := st.PutRun("r1", r, ann, label.TCM{}); err != nil {
				b.Fatal(err)
			}
			for _, decode := range []bool{false, true} {
				name := "labels"
				if decode {
					name = "document"
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sess, err := st.OpenRun("r1", label.TCM{})
						if err != nil {
							b.Fatal(err)
						}
						if decode {
							if _, _, err := sess.Document(); err != nil {
								b.Fatal(err)
							}
						}
					}
				})
			}
		})
	}
}

// BenchmarkStoreSkeletonCache isolates the win from caching the built
// specification labeling inside the Store: "cached" opens runs through
// one long-lived Store (skeleton built once), "uncached" pays the
// pre-redesign cost of rebuilding the spec labeling on every open by
// using a fresh Store each iteration. The 2-hop scheme on the QBLAST
// stand-in makes the build cost realistic — schemes like 2-hop and Dual
// exist precisely because their expensive one-time construction buys
// cheap queries, which is only a good trade if the store actually
// amortizes the construction.
func BenchmarkStoreSkeletonCache(b *testing.B) {
	s, err := workload.StandIn("QBLAST", 1)
	if err != nil {
		b.Fatal(err)
	}
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(2)), 300)
	st, err := store.NewMem(s, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if err := st.PutRun("r1", r, nil, label.TwoHop{}); err != nil {
		b.Fatal(err)
	}
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := st.OpenRun("r1", label.TwoHop{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fresh, err := store.OpenBackend(st.Backend())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fresh.OpenRun("r1", label.TwoHop{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
