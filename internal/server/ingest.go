package server

import (
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/store"
	"repro/internal/xmlio"
)

// ingest.go is the server's write path: PUT /runs/{name} accepts a run
// document (the xmlio run XML, with data items inline when present),
// reads it whole with xmlio.ReadRunDocument, and hands the bytes to
// store.PutRunDocument, which decodes them once (the decode validates
// the run against the spec), labels the run under the server's scheme
// and stores the body as received next to the label snapshot. Nothing
// on this path re-encodes the document. The handler then refreshes the
// session cache so the very next query sees the new run, and reports
// the stored snapshot's version and size. Ingest is off unless
// Config.EnableIngest is set: a provserve fronting a read-only store
// stays read-only.
//
// The store contract leaves same-name write/write and write/read races
// to the caller, and this server is that caller: runLocks is a striped
// reader/writer lock over run names. A PUT reads its body before it
// locks, then holds the write side across store.PutRunDocument and the
// cache invalidation; every cache-miss session
// load holds the read side (see Server.load). So concurrent PUTs for
// one name serialize, a load can never interleave a WriteRun and pair
// the old run document with the new label snapshot (a torn session),
// and distinct names — modulo stripe collisions — ingest and load fully
// in parallel. Cache *hits* take no lock at all: a resident session is
// immutable. Writers from other processes on a shared store are outside
// this lock and remain the deployment's to serialize, per the store
// contract. Label queries on such a torn pair answer from the labels,
// which are self-consistent; the first decode of its document checks
// the vertex count and every vertex's origin against the labels, so
// path queries and run status get an error rather than a wrong graph.

// runLocks is the striped per-run-name RWMutex. 64 stripes keyed by
// FNV-1a of the run name: collisions cost unrelated-name serialization,
// never correctness, and the fixed size means no per-name bookkeeping
// to leak.
type runLocks struct {
	mu [64]sync.RWMutex
}

// fnv32a is the package's one inlined FNV-1a over a run name — hash/fnv
// would heap-allocate its state and copy the name on every load and
// every PUT. Both stripe consumers (runLocks, the session cache's
// generation table) derive their index from this single implementation.
func fnv32a(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}

// forName picks the run's lock stripe.
func (l *runLocks) forName(name string) *sync.RWMutex {
	return &l.mu[fnv32a(name)%uint32(len(l.mu))]
}

// writeTarget runs the write endpoints' shared checks — the endpoint
// is enabled, the run name valid, the backend healthy — and returns the
// run name or the error s.fail answers the request with.
func (s *Server) writeTarget(r *http.Request, enabled bool, needs string) (string, error) {
	if !enabled {
		return "", fmt.Errorf("%s is %w on this server (start it with %s enabled)", r.Pattern, errDisabled, needs)
	}
	name := r.PathValue("name")
	if err := store.ValidRunName(name); err != nil {
		return "", badRequest{err}
	}
	if s.brk.isOpen() {
		return "", degraded(fmt.Sprintf("the storage backend is unavailable, %s is disabled", r.Pattern))
	}
	return name, nil
}

// markIngesting adds delta to name's count of in-flight writes (PUT,
// append, finish). A write marks its name from before it parses its
// body until its response is written, and the retention sweep never
// victimizes a marked name: without it, a concurrent sweep could list
// another client's just-persisted (cold, unqueried) run and delete it
// before that client even receives its 200.
func (s *Server) markIngesting(name string, delta int) {
	s.ingestingMu.Lock()
	if s.ingesting[name] += delta; s.ingesting[name] <= 0 {
		delete(s.ingesting, name)
	}
	s.ingestingMu.Unlock()
}

// refreshCached replaces name's resident session with one just written,
// under the run's write lock. Only a resident run is refreshed — someone
// is querying it, so it is handed the new labeling in place instead of
// being evicted and re-read from the backend. Runs nobody queried stay
// out of the cache entirely: cache membership is driven by query
// traffic, so a bulk ingest can never flush the query working set. No
// load is in flight under the write lock, so nothing can re-cache the
// old run in between.
func (s *Server) refreshCached(name string, sess *store.Session) {
	if s.cache.Invalidate(name) {
		s.cache.Put(name, s.newSession(sess))
	}
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	name, err := s.writeTarget(r, s.ingest, "ingest")
	if err != nil {
		return err
	}
	s.markIngesting(name, 1)
	defer s.markIngesting(name, -1)
	// The reader must never trust Content-Length or read an unbounded
	// hostile body: MaxBytesReader caps what the document can take. The
	// body is read whole before the run's lock is taken, so a slow
	// upload holds no lock.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	doc, err := xmlio.ReadRunDocument(r.Body)
	if err != nil {
		return badRequestf("malformed run document: %w", err)
	}

	mu := s.runMu.forName(name)
	mu.Lock()
	sess, err := s.st.PutRunDocument(name, doc, s.scheme)
	if err == nil {
		s.refreshCached(name, sess)
	}
	mu.Unlock()
	var bad *store.InvalidRunError
	if errors.As(err, &bad) {
		// The client's document: the backend was never asked, so the
		// breaker hears nothing.
		return badRequestf("malformed run document: %w", bad.Err)
	}
	s.brk.note(err)
	if err != nil {
		// The document is a run of the spec, so a failure here is the
		// store's (snapshot encoding or backend I/O) — the client's
		// request was well-formed. A transient failure left no usable
		// pair behind (a partial write is transient precisely because an
		// overwrite retry heals it), so the client is told to retry, not
		// that the server broke.
		return writeFailed("storing run %q: %w", name, err)
	}
	if s.maxRuns > 0 {
		// Retention rides the write path: every PUT that may have grown
		// the store sweeps it back under the bound. The just-ingested run
		// is still marked in flight, so the sweep never deletes it, even
		// when nobody has queried it yet.
		if _, err := s.EnforceMaxRuns(s.maxRuns); err != nil {
			s.logf("server: retention sweep after PUT %q: %v", name, err)
		}
	}
	// A session just stored holds its decoded run: no decode, no error.
	rn, ann, err := sess.Document()
	if err != nil {
		return fmt.Errorf("storing run %q: %w", name, err)
	}
	items := 0
	if ann != nil {
		items = len(ann.Items)
	}
	respond().num("data_items", items).num("edges", rn.NumEdges()).str("run", name).
		num("snapshot_bytes", sess.SnapshotBytes).str("snapshot_version", sess.SnapshotVersion.String()).
		num("vertices", rn.NumVertices()).send(w, http.StatusOK)
	return nil
}
