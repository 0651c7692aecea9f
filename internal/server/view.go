package server

import (
	"errors"
	"fmt"
	"io/fs"

	"repro/internal/dag"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/store"
)

// view.go is the server's one query path. A query is a predicate over
// labels (the paper's Algorithm 3), the same whether the run was labeled
// offline at ingest or online as it streams in, so every query handler
// runs the same four steps — parse, resolveRun, evaluate against a
// runView, encode — and never asks which kind of run it holds. The two
// runViews differ only in where their labels live: a stored *session
// answers from its immutable label snapshot (batches fan out across
// CPUs, path queries decode the run document on first use), a liveView
// from the online labeler under the run's read lock (sequentially, and
// path queries materialize the streamed execution tree).

// runView is one queryable run.
type runView interface {
	// Namer names the run's vertices and resolves occurrence names
	// ("b2"); its Len is the vertex count. The numeric-ID fallback is the
	// server's, one vertexID for both views.
	Namer() *run.Namer
	Reachable(u, v dag.VertexID) bool
	// ByContext reports whether Reachable(u, v) was decided by the
	// context comparison alone.
	ByContext(u, v dag.VertexID) bool
	// AppendCone appends v's lineage cone in ascending vertex ID: the
	// vertices reaching v when up, those v reaches otherwise.
	AppendCone(dst []dag.VertexID, v dag.VertexID, up bool) []dag.VertexID
	appendReachable(dst []bool, pairs [][2]dag.VertexID) []bool
	// graph returns the run's edges, for the one label-free query (/rpq).
	graph() (*run.Run, error)
	// status writes the run's status fields into jw.
	status(jw *jsonWriter, name string) error
}

// session is one cached run: the stored session plus its namer, both
// immutable after load (the stored session decodes its run
// document at most once, on the first query that needs it).
type session struct {
	*store.Session
	namer *run.Namer
}

// newSession names a stored session's vertices from its label
// snapshot's origin column, which the namer shares (it is built in two
// counting passes and copies no column) — the run document stays
// undecoded until a path query or a run status asks for it.
func (s *Server) newSession(sess *store.Session) *session {
	return &session{Session: sess, namer: run.NewNamerFromOrigins(s.st.Spec(), sess.Labels.Origins())}
}

func (se *session) Namer() *run.Namer                { return se.namer }
func (se *session) Reachable(u, v dag.VertexID) bool { return se.Labels.Reachable(u, v) }
func (se *session) ByContext(u, v dag.VertexID) bool { return se.Labels.AnsweredByContext(u, v) }
func (se *session) AppendCone(dst []dag.VertexID, v dag.VertexID, up bool) []dag.VertexID {
	return se.Labels.AppendCone(dst, v, up)
}

// appendReachable is /batch's hot path: evaluation runs entirely in the
// caller's pooled scratch, fanning out across CPUs for large batches.
func (se *session) appendReachable(dst []bool, pairs [][2]dag.VertexID) []bool {
	return se.Labels.AppendReachableBatch(dst, pairs, 0)
}

func (se *session) graph() (*run.Run, error) {
	rn, _, err := se.Document()
	return rn, err
}

func (se *session) status(jw *jsonWriter, name string) error {
	rn, ann, err := se.Document()
	if err != nil {
		return err
	}
	items := 0
	if ann != nil {
		items = len(ann.Items)
	}
	jw.float("avg_label_bits", se.Labels.AvgLabelBits()).num("data_items", items).num("edges", rn.NumEdges()).
		num("max_label_bits", se.Labels.MaxLabelBits()).str("run", name).num("snapshot_bytes", se.SnapshotBytes).
		str("snapshot_version", se.SnapshotVersion.String()).str("status", "finished").num("vertices", rn.NumVertices())
	return nil
}

// liveView is a live stream as a runView. The online labeler is mutable
// state under the run lock, not a parallel-safe snapshot, so batches
// answer sequentially.
type liveView struct{ *live.Session }

func (lv liveView) appendReachable(dst []bool, pairs [][2]dag.VertexID) []bool {
	for _, p := range pairs {
		dst = append(dst, lv.Reachable(p[0], p[1]))
	}
	return dst
}

// graph rebuilds the run from the streamed execution tree; its vertex
// IDs match the live numbering, so the online labels prune walks over
// it. A stream that does not yet describe a complete run answers
// *live.IncompleteError.
func (lv liveView) graph() (*run.Run, error) { return lv.MaterializedRun() }

func (lv liveView) status(jw *jsonWriter, name string) error {
	jw.num("checkpoint_seq", lv.CheckpointSeq()).num("copies", lv.NumCopies()).
		num("event_log_bytes", int(lv.EventLogBytes())).num("events", lv.Seq()).num("renumbers", lv.Renumbers()).
		str("run", name).str("status", "live").num("vertices", lv.Namer().Len())
	return nil
}

// noRelease is a stored view's release: resident sessions are immutable
// and need no lock, and a package-level func keeps /batch allocation-free.
func noRelease() {}

// resolveRun resolves a run name for a query endpoint: the live session
// when one exists (with its read lock held until release is called),
// the cached stored session otherwise. A cache miss on a streaming
// server probes durable stream state and resurrects the live session
// from it before answering not-found. release is always callable.
func (s *Server) resolveRun(name string) (runView, func(), error) {
	if name == "" {
		return nil, nil, badRequestf("missing 'run' parameter")
	}
	if err := store.ValidRunName(name); err != nil {
		return nil, nil, badRequest{err}
	}
	if s.stream {
		// A live session answers under the run's read lock, held until
		// release, so appends (write side) cannot mutate the labeler
		// mid-answer.
		mu := s.runMu.forName(name)
		mu.RLock()
		if ls := s.live.Get(name); ls != nil {
			ls.Touch()
			return liveView{ls}, mu.RUnlock, nil
		}
		mu.RUnlock()
	}
	if s.brk.isOpen() {
		// Degraded read-only mode: resident sessions answer at full
		// fidelity, everything else is shed — a cache miss here would
		// send a query to a backend known to be failing.
		if sess, ok := s.cache.Peek(name); ok {
			return sess, noRelease, nil
		}
		return nil, nil, degraded(fmt.Sprintf("run %q is not resident and the storage backend is unavailable", name))
	}
	sess, err := s.cache.Get(name)
	if err == nil {
		return sess, noRelease, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("loading run %q: %w", name, err)
	}
	if s.stream {
		// Lazy crash recovery: resurrect the live session from durable
		// stream state under the write lock, and answer with it held.
		mu := s.runMu.forName(name)
		mu.Lock()
		ls, err := s.openStream(name, true)
		if err == nil {
			ls.Touch()
			return liveView{ls}, mu.Unlock, nil
		}
		mu.Unlock()
		switch {
		case errors.Is(err, errFinished):
			// A PUT or finish stored the run after our cache miss: load it.
			if sess, err := s.cache.Get(name); err == nil {
				return sess, noRelease, nil
			}
		case !errors.Is(err, fs.ErrNotExist):
			return nil, nil, err
		}
	}
	return nil, nil, notFound(fmt.Sprintf("unknown run %q", name))
}

// vertexParam resolves a query parameter's vertex reference, answering
// an unknown one with a not-found error. Every reference resolves the
// same way, for every endpoint and both views: an occurrence name
// ("b2") first — so every name the server itself emits resolves, even
// when module names start with digits — then a numeric vertex ID.
func vertexParam(nm *run.Namer, ref string) (dag.VertexID, error) {
	v, ok := vertexToken{raw: []byte(ref), id: -1}.resolve(nm)
	if !ok {
		return 0, notFound(fmt.Sprintf("unknown vertex %q", ref))
	}
	return v, nil
}

// resolve resolves one parsed /batch pair element: numeric elements are
// plain ID range checks, string elements resolve like vertexParam.
func (t vertexToken) resolve(nm *run.Namer) (dag.VertexID, bool) {
	if t.id >= 0 {
		return dag.VertexID(t.id), t.id < nm.Len()
	}
	if v, ok := nm.VertexBytes(t.raw); ok {
		return v, true
	}
	return vertexID(t.raw, nm.Len())
}

// vertexID parses a numeric vertex ID below n, sign-tolerant like
// strconv.Atoi but without the string conversion the /batch hot path
// cannot afford.
func vertexID(ref []byte, n int) (dag.VertexID, bool) {
	if len(ref) > 0 && ref[0] == '+' {
		ref = ref[1:]
	}
	if len(ref) == 0 {
		return 0, false
	}
	id := 0
	for i := 0; i < len(ref); i++ {
		c := ref[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if id = id*10 + int(c-'0'); id >= n {
			return 0, false
		}
	}
	return dag.VertexID(id), true
}
