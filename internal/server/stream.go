package server

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"

	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/live"
	"repro/internal/store"
)

// stream.go is the server's streaming ingest path (Config.EnableStream):
// POST /runs/{name}/events appends engine events to a live per-run
// session labeled online by internal/live, POST /runs/{name}/finish
// seals the session into a normal stored run, and GET /runs/{name}
// reports either side's status. Query endpoints answer against the live
// session transparently whenever one exists (resolveRun), so a client
// can interrogate a run while the workflow is still executing.
//
// Concurrency reuses the write path's striped per-run-name locks:
// appends, finishes and recoveries hold the write side, queries against
// a live session hold the read side for the whole answer (the online
// labeler mutates under appends, unlike the immutable stored sessions),
// and stored-session queries keep their existing lock-free cache-hit
// path. Crash recovery is lazy: the first append, finish or query for a
// run that has durable stream state but no registered session rebuilds
// it from the checkpoint and event-log tail (live.Recover). When a run
// is both stored and has leftover stream state, the stored run wins and
// the stale stream state is discarded — Finish persists the run before
// cleaning the log, so its crash window leaves exactly that pair.

// maxEventLine bounds one event-log line accepted from the wire; the
// longest legitimate record is two decimal ints plus a module name, so
// 4 KiB is generous without letting one token balloon.
const maxEventLine = 4096

// resolveRun resolves a run name for a query endpoint: the live session
// when one exists (returned with its read lock held; call release when
// done answering), the cached stored session otherwise. A cache miss on
// a streaming server probes durable stream state and resurrects the
// live session from it before answering 404. Exactly one of the session
// returns is non-nil on ok.
func (s *Server) resolveRun(w http.ResponseWriter, name string) (*live.Session, func(), *session, bool) {
	if name == "" {
		writeErr(w, http.StatusBadRequest, "missing 'run' parameter")
		return nil, nil, nil, false
	}
	if err := store.ValidRunName(name); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return nil, nil, nil, false
	}
	if s.stream {
		if ls, release := s.liveLocked(name); ls != nil {
			ls.Touch()
			return ls, release, nil, true
		}
	}
	if s.brk.isOpen() {
		// Degraded read-only mode: resident sessions answer at full
		// fidelity, everything else is shed — a cache miss here would
		// send a query to a backend known to be failing.
		if sess, ok := s.cache.Peek(name); ok {
			return nil, nil, sess, true
		}
		s.unavailable(w, "degraded mode: run %q is not resident and the storage backend is unavailable", name)
		return nil, nil, nil, false
	}
	sess, err := s.cache.Get(name)
	if err == nil {
		return nil, nil, sess, true
	}
	if !errors.Is(err, os.ErrNotExist) {
		if store.IsTransient(err) {
			s.unavailable(w, "loading run %q: %v", name, err)
			return nil, nil, nil, false
		}
		writeErr(w, http.StatusInternalServerError, "loading run %q: %v", name, err)
		return nil, nil, nil, false
	}
	if s.stream {
		ls, release, rerr := s.resurrect(name)
		if rerr != nil {
			s.brk.note(rerr)
			if store.IsTransient(rerr) {
				s.unavailable(w, "recovering stream %q: %v", name, rerr)
				return nil, nil, nil, false
			}
			writeErr(w, http.StatusInternalServerError, "recovering stream %q: %v", name, rerr)
			return nil, nil, nil, false
		}
		if ls != nil {
			ls.Touch()
			return ls, release, nil, true
		}
		// resurrect found a stored run instead of stream state: a PUT or
		// finish landed after our cache miss. Load it.
		if sess, err := s.cache.Get(name); err == nil {
			return nil, nil, sess, true
		}
	}
	writeErr(w, http.StatusNotFound, "unknown run %q", name)
	return nil, nil, nil, false
}

// liveLocked returns name's live session with its stripe read lock
// held, or (nil, nil) after releasing the lock. Holding the read side
// across the whole query keeps appends (write side) from mutating the
// labeler mid-answer.
func (s *Server) liveLocked(name string) (*live.Session, func()) {
	mu := s.runMu.forName(name)
	mu.RLock()
	if ls := s.live.Get(name); ls != nil {
		return ls, mu.RUnlock
	}
	mu.RUnlock()
	return nil, nil
}

// resurrect rebuilds a live session from durable stream state under the
// run's write lock, registering it and returning it with that lock
// still held. It returns (nil, nil, nil) when the run has no stream
// state to recover — including when a stored run exists (store wins;
// the caller should load that instead).
func (s *Server) resurrect(name string) (*live.Session, func(), error) {
	mu := s.runMu.forName(name)
	mu.Lock()
	if ls := s.live.Get(name); ls != nil {
		// Another request resurrected it while we waited for the lock.
		return ls, mu.Unlock, nil
	}
	if s.runStored(name) {
		mu.Unlock()
		return nil, nil, nil
	}
	ls, err := live.Recover(s.st, name, s.streamSkel, s.live.Gauges())
	if err != nil {
		mu.Unlock()
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil, nil
		}
		return nil, nil, err
	}
	s.logf("server: recovered live stream %q at sequence %d", name, ls.Seq())
	s.live.Put(name, ls)
	return ls, mu.Unlock, nil
}

// runStored reports whether a stored run document exists for name,
// bypassing the session cache (a probe, not a load).
func (s *Server) runStored(name string) bool {
	rc, err := s.st.Backend().ReadRun(name)
	if err != nil {
		return false
	}
	rc.Close()
	return true
}

func (s *Server) handleAppendEvents(w http.ResponseWriter, r *http.Request) {
	if !s.stream {
		writeErr(w, http.StatusForbidden,
			"streaming is disabled on this server (start it with streaming enabled to accept POST /runs/{name}/events)")
		return
	}
	name := r.PathValue("name")
	if err := store.ValidRunName(name); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.brk.isOpen() {
		s.unavailable(w, "degraded mode: the storage backend is unavailable, appends are disabled")
		return
	}
	offset := -1
	if raw := r.URL.Query().Get("offset"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, "offset must be a non-negative integer, got %q", raw)
			return
		}
		offset = v
	}
	// Shield the name from retention sweeps while the append executes,
	// exactly like PUT: a sweep must not delete a run mid-write.
	s.ingestingMu.Lock()
	s.ingesting[name]++
	s.ingestingMu.Unlock()
	defer func() {
		s.ingestingMu.Lock()
		if s.ingesting[name]--; s.ingesting[name] <= 0 {
			delete(s.ingesting, name)
		}
		s.ingestingMu.Unlock()
	}()
	// Parse before taking the run lock: a slow client body must not
	// block queries. The event count cap is what the byte cap implies
	// (every record is several bytes), so neither bound is the weak one.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	evs, err := events.ReadLogLimits(r.Body, maxEventLine, int(s.maxIngestBytes/8))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"event batch exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "malformed event log: %v", err)
		return
	}

	mu := s.runMu.forName(name)
	mu.Lock()
	defer mu.Unlock()
	ls := s.live.Get(name)
	if ls != nil && ls.Broken() {
		// A storage failure left the durable tail unknown; drop the
		// session and rebuild from disk. The client's offset-based resume
		// re-sends anything the partial append lost.
		s.live.Remove(name)
		ls = nil
	}
	if ls == nil {
		if s.runStored(name) {
			writeErr(w, http.StatusConflict, "run %q is already finished", name)
			return
		}
		switch recovered, err := live.Recover(s.st, name, s.streamSkel, s.live.Gauges()); {
		case err == nil:
			s.logf("server: recovered live stream %q at sequence %d", name, recovered.Seq())
			ls = recovered
		case errors.Is(err, fs.ErrNotExist):
			ls = live.NewSession(s.st, name, s.streamSkel, s.live.Gauges())
		default:
			s.brk.note(err)
			if store.IsTransient(err) {
				s.unavailable(w, "recovering stream %q: %v", name, err)
				return
			}
			writeErr(w, http.StatusInternalServerError, "recovering stream %q: %v", name, err)
			return
		}
		s.live.Put(name, ls)
	}
	ls.Touch()
	if offset < 0 {
		offset = ls.Seq()
	}
	applied, err := ls.Append(evs, offset)
	if err != nil {
		var evErr *live.EventError
		if errors.Is(err, live.ErrGap) || errors.Is(err, live.ErrConflict) || errors.As(err, &evErr) {
			// The response carries the applied sequence so a resuming
			// client knows exactly where to continue from.
			writeJSON(w, http.StatusConflict, map[string]any{
				"error": err.Error(), "run": name, "seq": ls.Seq(),
			})
			return
		}
		s.brk.note(err)
		if store.IsTransient(err) {
			// The failed call had no side effect (the transient contract),
			// so the session is intact and the client may simply retry the
			// batch at the same offset.
			s.unavailable(w, "appending to stream %q: %v", name, err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "appending to stream %q: %v", name, err)
		return
	}
	s.brk.note(nil)
	if s.ckptEvery > 0 && ls.SinceCheckpoint() >= s.ckptEvery {
		// Checkpoint failure never fails the append — the events are
		// already durable in the log; only the replay bound suffers.
		if err := ls.Checkpoint(); err != nil {
			s.brk.note(err)
			s.logf("server: checkpointing stream %q: %v", name, err)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"run":      name,
		"applied":  applied,
		"seq":      ls.Seq(),
		"vertices": ls.NumVertices(),
		"copies":   ls.NumCopies(),
	})
}

func (s *Server) handleFinish(w http.ResponseWriter, r *http.Request) {
	if !s.stream {
		writeErr(w, http.StatusForbidden,
			"streaming is disabled on this server (start it with streaming enabled to accept POST /runs/{name}/finish)")
		return
	}
	name := r.PathValue("name")
	if err := store.ValidRunName(name); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if s.brk.isOpen() {
		s.unavailable(w, "degraded mode: the storage backend is unavailable, finish is disabled")
		return
	}
	// Shield the freshly stored run from the retention sweep until the
	// 200 is written, like PUT does for its run.
	s.ingestingMu.Lock()
	s.ingesting[name]++
	s.ingestingMu.Unlock()
	defer func() {
		s.ingestingMu.Lock()
		if s.ingesting[name]--; s.ingesting[name] <= 0 {
			delete(s.ingesting, name)
		}
		s.ingestingMu.Unlock()
	}()

	mu := s.runMu.forName(name)
	mu.Lock()
	ls := s.live.Get(name)
	if ls == nil {
		switch recovered, err := live.Recover(s.st, name, s.streamSkel, s.live.Gauges()); {
		case err == nil:
			s.logf("server: recovered live stream %q at sequence %d", name, recovered.Seq())
			ls = recovered
			s.live.Put(name, ls)
		case errors.Is(err, fs.ErrNotExist):
			stored := s.runStored(name)
			mu.Unlock()
			if stored {
				writeErr(w, http.StatusConflict, "run %q is already finished", name)
			} else {
				writeErr(w, http.StatusNotFound, "no live stream for run %q", name)
			}
			return
		default:
			mu.Unlock()
			writeErr(w, http.StatusInternalServerError, "recovering stream %q: %v", name, err)
			return
		}
	}
	sess, err := ls.Finish(s.scheme)
	if err == nil {
		s.live.Remove(name)
		if s.cache.Invalidate(name) {
			// Same refresh-in-place as PUT: the run was resident, so
			// someone is querying it — hand them the sealed session.
			s.cache.Put(name, s.newSession(sess))
		}
	}
	seq := ls.Seq()
	mu.Unlock()
	if err != nil {
		// On any failure the session stays registered and appendable: an
		// incomplete stream continues, a store failure retries.
		var inc *live.IncompleteError
		if errors.As(err, &inc) {
			writeErr(w, http.StatusConflict, "cannot finish run %q: %v", name, inc.Err)
			return
		}
		s.brk.note(err)
		if store.IsTransient(err) {
			s.unavailable(w, "finishing run %q: %v", name, err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "finishing run %q: %v", name, err)
		return
	}
	s.brk.note(nil)
	// Sealed sessions hold the run they just stored: no decode, no error.
	rn, _, err := sess.Document()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "finishing run %q: %v", name, err)
		return
	}
	s.logf("server: finished streamed run %q (%d events, %d vertices)", name, seq, rn.NumVertices())
	if s.maxRuns > 0 {
		if _, err := s.EnforceMaxRuns(s.maxRuns, name); err != nil {
			s.logf("server: retention sweep after finish %q: %v", name, err)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"run":              name,
		"vertices":         rn.NumVertices(),
		"edges":            rn.NumEdges(),
		"events":           seq,
		"snapshot_version": sess.SnapshotVersion.String(),
		"snapshot_bytes":   sess.SnapshotBytes,
	})
}

// handleRunStatus answers GET /runs/{name} — the per-run twin of
// /runs?run=R, distinguishing live streams from finished runs.
func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	s.writeRunStatus(w, r.PathValue("name"))
}

// writeRunStatus writes one run's status: live-session progress while a
// stream is open, stored-run statistics once finished. Shared by
// GET /runs/{name} and the /runs?run=R detail branch.
func (s *Server) writeRunStatus(w http.ResponseWriter, name string) {
	ls, release, sess, ok := s.resolveRun(w, name)
	if !ok {
		return
	}
	if ls != nil {
		defer release()
		writeJSON(w, http.StatusOK, map[string]any{
			"run":             name,
			"status":          "live",
			"vertices":        ls.NumVertices(),
			"copies":          ls.NumCopies(),
			"events":          ls.Seq(),
			"renumbers":       ls.Renumbers(),
			"checkpoint_seq":  ls.CheckpointSeq(),
			"event_log_bytes": ls.EventLogBytes(),
		})
		return
	}
	rn, ann, err := sess.Document()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "loading run %q: %v", name, err)
		return
	}
	items := 0
	if ann != nil {
		items = len(ann.Items)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"run":              name,
		"status":           "finished",
		"vertices":         rn.NumVertices(),
		"edges":            rn.NumEdges(),
		"data_items":       items,
		"max_label_bits":   sess.Labels.MaxLabelBits(),
		"avg_label_bits":   sess.Labels.AvgLabelBits(),
		"snapshot_version": sess.SnapshotVersion.String(),
		"snapshot_bytes":   sess.SnapshotBytes,
	})
}

// clearStreamState drops name's live session and durable stream state
// (event log + checkpoint), reporting whether any existed — so DELETE
// can abort a stream that was never finished (and so never stored) and
// still answer success. Callers hold the run's write lock.
func (s *Server) clearStreamState(name string) bool {
	had := s.live.Remove(name) != nil
	if rc, err := s.st.ReadRunEvents(name); err == nil {
		rc.Close()
		had = true
	}
	if rc, err := s.st.Backend().ReadMeta(live.CheckpointMeta(name)); err == nil {
		data, _ := io.ReadAll(rc)
		rc.Close()
		if len(data) > 0 {
			had = true
		}
	}
	// Cleanup failures are survivable — the store-wins rule deletes
	// stale stream state lazily — but a backend refusing deletes is an
	// operator-visible condition, not one to swallow.
	if err := s.st.DeleteRunEvents(name); err != nil {
		s.logf("server: clearing event log for %q: %v", name, err)
	}
	if err := s.st.Backend().WriteMeta(live.CheckpointMeta(name), nil); err != nil {
		s.logf("server: clearing checkpoint for %q: %v", name, err)
	}
	return had
}

// liveVertexToken resolves one /batch pair element against a live
// session, mirroring session.vertexToken: numeric elements are ID range
// checks, string elements resolve by name first.
func liveVertexToken(ls *live.Session, t vertexToken) (dag.VertexID, bool) {
	if t.id >= 0 {
		if t.id < ls.NumVertices() {
			return dag.VertexID(t.id), true
		}
		return 0, false
	}
	return ls.Vertex(string(t.raw))
}
