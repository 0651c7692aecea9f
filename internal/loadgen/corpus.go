package loadgen

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/rpq"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/store/faultinject"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

// Corpus is what the driver needs to know about the store under test:
// the queryable runs (zipfian popularity follows slice order) and
// pre-rendered run XML bodies for PUT traffic.
type Corpus struct {
	Runs      []RunInfo
	PutBodies [][]byte
}

// BuildCorpus populates st with n generated runs of roughly size
// vertices each (names "run-0000"...) labeled with scheme, and renders
// putBodies extra run documents (over the store's own spec) for ingest
// traffic. It is deterministic given seed.
func BuildCorpus(st *store.Store, n, size, putBodies int, seed int64, scheme label.Scheme) (*Corpus, error) {
	if scheme == nil {
		scheme = label.TCM{}
	}
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{}
	for i := 0; i < n; i++ {
		r, _ := run.GenerateSized(st.Spec(), rng, size)
		name := fmt.Sprintf("run-%04d", i)
		if err := st.PutRun(name, r, nil, scheme); err != nil {
			return nil, fmt.Errorf("corpus: put %s: %w", name, err)
		}
		c.Runs = append(c.Runs, RunInfo{Name: name, Vertices: r.NumVertices()})
	}
	bodies, err := RenderPutBodies(st.Spec(), st.SpecName(), putBodies, size, seed+1)
	if err != nil {
		return nil, err
	}
	c.PutBodies = bodies
	return c, nil
}

// RenderPutBodies generates n run XML documents over sp for PUT
// traffic, deterministic given seed.
func RenderPutBodies(sp *spec.Spec, specName string, n, size int, seed int64) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	var bodies [][]byte
	for i := 0; i < n; i++ {
		r, _ := run.GenerateSized(sp, rng, size)
		var buf bytes.Buffer
		if err := xmlio.EncodeRun(&buf, r, nil, specName); err != nil {
			return nil, fmt.Errorf("corpus: render put body: %w", err)
		}
		bodies = append(bodies, buf.Bytes())
	}
	return bodies, nil
}

// StreamEventBatches generates one run of roughly size vertices over
// sp, emits its engine event log and splits it into per-event append
// batches for streaming-ingest traffic. Deterministic given seed.
func StreamEventBatches(sp *spec.Spec, size, per int, seed int64) ([]StreamBatch, error) {
	rng := rand.New(rand.NewSource(seed))
	r, p := run.GenerateSized(sp, rng, size)
	return SplitEventLog(events.Emit(r, p), per)
}

// CorpusFromStore builds the read corpus from an already-populated
// store (vertex counts come from each run's labels; no run document is
// decoded).
func CorpusFromStore(st *store.Store, scheme label.Scheme) (*Corpus, error) {
	if scheme == nil {
		scheme = label.TCM{}
	}
	names, err := st.Runs()
	if err != nil {
		return nil, err
	}
	c := &Corpus{}
	for _, name := range names {
		sess, err := st.OpenRun(name, scheme)
		if err != nil {
			return nil, fmt.Errorf("corpus: open %s: %w", name, err)
		}
		c.Runs = append(c.Runs, RunInfo{Name: name, Vertices: sess.Labels.NumVertices()})
	}
	return c, nil
}

// StandInSpec resolves the named Table-1 stand-in workflow (the load
// harness's default corpus spec).
func StandInSpec(name string, seed int64) (*spec.Spec, error) {
	return workload.StandIn(name, seed)
}

// RPQPatternPool renders n random label-regex patterns for /rpq
// traffic, deterministic given seed. With a spec the pool draws module
// names from it, so most patterns reference labels that actually occur
// in the corpus; with a nil spec (target mode, where the server's
// module names are unknown) the pool is wildcard-only, which still
// drives the full parse/determinize/product-evaluate path.
func RPQPatternPool(sp *spec.Spec, n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var names []string
	if sp != nil {
		for v := 0; v < sp.NumVertices(); v++ {
			names = append(names, string(sp.NameOf(dag.VertexID(v))))
		}
	}
	pats := make([]string, 0, n)
	for i := 0; i < n; i++ {
		pats = append(pats, rpq.RandomPattern(rng, names, 2))
	}
	return pats
}

// OpenOrCreateStore opens the store at a provserve-style URL
// (fs://dir, bare path, mem:, mem://), creating it with the given spec
// when it does not exist yet. The second result reports
// whether the store was created (and therefore needs a corpus).
// A fault://opts/inner URL opens (or creates) the inner store and
// wraps its backend in the chaos fault injector — the plan is armed
// only after the store is open, so creating the store and persisting
// the spec are never the faults' victims. Everything after (corpus
// building, the load run) is; pair with provload -retry to absorb the
// injected transients.
func OpenOrCreateStore(url string, sp *spec.Spec, specName string) (*store.Store, bool, error) {
	switch {
	case strings.HasPrefix(url, "fault://"):
		opts, inner, ok := strings.Cut(strings.TrimPrefix(url, "fault://"), "/")
		if !ok {
			return nil, false, fmt.Errorf("loadgen: fault URL %q needs fault://opts/inner-url", url)
		}
		plan, err := faultinject.ParsePlan(opts)
		if err != nil {
			return nil, false, err
		}
		st, created, err := OpenOrCreateStore(inner, sp, specName)
		if err != nil {
			return nil, false, err
		}
		fb := faultinject.Wrap(st.Backend(), faultinject.Plan{})
		wrapped, err := store.OpenBackend(fb)
		if err != nil {
			return nil, false, err
		}
		fb.SetPlan(plan)
		return wrapped, created, nil
	case url == "mem:" || url == "mem://" || strings.HasPrefix(url, "mem://"):
		// A pure in-RAM store is always fresh; mem://dir preloading an
		// existing fs directory is store.OpenURL's job.
		if url == "mem:" || url == "mem://" {
			st, err := store.NewMem(sp, specName)
			return st, true, err
		}
		st, err := store.OpenURL(url)
		return st, false, err
	default:
		// Any other scheme is refused, not taken for a directory name.
		if scheme, _, ok := strings.Cut(url, "://"); ok && scheme != "fs" {
			return nil, false, fmt.Errorf("loadgen: unknown store URL scheme %q (want fs, mem or fault)", scheme)
		}
		dir := strings.TrimPrefix(url, "fs://")
		if st, err := store.Open(dir); err == nil {
			return st, false, nil
		}
		st, err := store.Create(dir, sp, specName)
		return st, true, err
	}
}
