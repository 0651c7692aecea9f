package server

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/events"
	"repro/internal/live"
)

// stream.go is the server's streaming ingest path (Config.EnableStream):
// POST /runs/{name}/events appends engine events to a live per-run
// session labeled online by internal/live, POST /runs/{name}/finish
// seals the session into a normal stored run, and GET /runs/{name}
// reports either side's status. Queries never ask which side they hit:
// resolveRun hands every query endpoint a runView (view.go) — a liveView
// over the online labels while a stream is open, the stored session once
// it is finished — so a client can interrogate a run while the workflow
// is still executing and get the answers the finished run will give.
//
// Concurrency reuses the write path's striped per-run-name locks:
// appends, finishes and recoveries hold the write side, queries against
// a live session hold the read side until resolveRun's release (the
// online labeler mutates under appends, unlike the immutable stored
// sessions), and stored-session queries keep their lock-free cache-hit
// path. Crash recovery is lazy: the first append, finish or query for a
// run with an event log (a stream's only durable copy) but no
// registered session replays it (openStream). When a run is both
// stored and has leftover stream state, the stored run wins and the
// stale stream state is discarded — Finish persists the run before
// cleaning the log, so its crash window leaves exactly that pair. A PUT
// over a live stream clears the stream itself (handleIngest), and an
// idle stream expires as a DELETE would clear it (SweepIdleStreams).

// maxEventLine bounds one event-log line accepted from the wire; the
// longest legitimate record is two decimal ints plus a module name, so
// 4 KiB is generous without letting one token balloon.
const maxEventLine = 4096

// appendScratch is what one append request reads and parses into: the
// body and its events. Nothing a request leaves behind refers to it.
type appendScratch struct {
	body bytes.Buffer
	evs  []events.Event
}

// appendScratchPool is a pointer so a test can hand the handler a
// scratch it holds.
var appendScratchPool = &sync.Pool{New: func() any { return new(appendScratch) }}

// release pools sc unless it outgrew live.MaxPooledBytes, the bound a
// live session's pooled log buffer has too.
func (sc *appendScratch) release() {
	if sc.body.Cap() > live.MaxPooledBytes || cap(sc.evs) > live.MaxPooledBytes/16 {
		return
	}
	clear(sc.evs) // drop the copied names of unknown modules
	appendScratchPool.Put(sc)
}

// errFinished is openStream's answer for a run that is already stored:
// the store wins over any leftover stream state. s.fail answers it 409.
var errFinished = errors.New("already finished")

// openStream returns name's registered live session, or rebuilds it
// from durable stream state (live.Recover), logs the recovery and
// registers it. A run with no stream state answers errFinished when it
// is stored and an error matching fs.ErrNotExist otherwise. With
// storeWins a stored run answers errFinished before any recovery: its
// stream state can only be what a crash between Finish's persist and
// its log cleanup left behind. Appends and queries pass true; /finish
// passes false, so a finish retried across that crash re-seals the same
// state and succeeds as the first one did. Callers hold the run's write
// lock.
func (s *Server) openStream(name string, storeWins bool) (*live.Session, error) {
	if ls := s.live.Get(name); ls != nil {
		return ls, nil
	}
	if storeWins {
		if err := s.notStored(name); err != nil {
			return nil, err
		}
	}
	ls, err := live.Recover(s.st, name, s.streamSkel, s.live.Gauges())
	if errors.Is(err, fs.ErrNotExist) && !storeWins {
		if serr := s.notStored(name); serr != nil {
			return nil, serr
		}
	}
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.brk.note(err)
		}
		return nil, fmt.Errorf("recovering stream %q: %w", name, err)
	}
	s.logf("server: recovered live stream %q at sequence %d", name, ls.Seq())
	s.live.Put(name, ls)
	return ls, nil
}

// notStored probes the backend for a stored run document, bypassing
// the session cache (a probe, not a load): nil when there is none,
// errFinished when there is. A failed probe is its error, never "not
// stored": a transient read must not turn a finished run back into a
// fresh stream.
func (s *Server) notStored(name string) error {
	rc, err := s.st.Backend().ReadRun(name)
	switch {
	case err == nil:
		rc.Close()
		return fmt.Errorf("run %q is %w", name, errFinished)
	case errors.Is(err, fs.ErrNotExist):
		return nil
	}
	s.brk.note(err)
	return fmt.Errorf("probing run %q: %w", name, err)
}

func (s *Server) handleAppendEvents(w http.ResponseWriter, r *http.Request) error {
	name, err := s.writeTarget(r, s.stream, "streaming")
	if err != nil {
		return err
	}
	offset := -1
	if raw := queryParam(r.URL.RawQuery, "offset"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			return badRequestf("offset must be a non-negative integer, got %q", raw)
		}
		offset = v
	}
	s.markIngesting(name, 1)
	defer s.markIngesting(name, -1)
	// Parse before taking the run lock: a slow client body must not
	// block queries. The event count cap is what the byte cap implies
	// (every record is several bytes), so neither bound is the weak one.
	// The body is read whole into pooled scratch and parsed there, each
	// module name interned against the spec.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	sc := appendScratchPool.Get().(*appendScratch)
	defer sc.release()
	evs, err := events.ReadLogInto(sc.evs[:0], &sc.body, r.Body, s.st.Spec(), maxEventLine, int(s.maxIngestBytes/8))
	sc.evs = evs
	if err != nil {
		return badRequestf("malformed event log: %w", err)
	}

	mu := s.runMu.forName(name)
	mu.Lock()
	defer mu.Unlock()
	if ls := s.live.Get(name); ls != nil && ls.Broken() {
		// A storage failure left the durable tail unknown; drop the
		// session and rebuild from disk. The client's offset-based resume
		// re-sends anything the partial append lost.
		s.live.Remove(name)
	}
	ls, err := s.openStream(name, true)
	if errors.Is(err, fs.ErrNotExist) {
		ls, err = live.NewSession(s.st, name, s.streamSkel, s.live.Gauges()), nil
		s.live.Put(name, ls)
	}
	if err != nil {
		return err
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
			respond().str("error", err.Error()).str("run", name).num("seq", ls.Seq()).send(w, http.StatusConflict)
			return nil
		}
		// A transient failure had no side effect (the transient
		// contract), so the session is intact and the client may simply
		// retry the batch at the same offset.
		s.brk.note(err)
		return writeFailed("appending to stream %q: %w", name, err)
	}
	s.brk.note(nil)
	respond().num("applied", applied).num("copies", ls.NumCopies()).str("run", name).
		num("seq", ls.Seq()).num("vertices", ls.Namer().Len()).send(w, http.StatusOK)
	return nil
}

func (s *Server) handleFinish(w http.ResponseWriter, r *http.Request) error {
	name, err := s.writeTarget(r, s.stream, "streaming")
	if err != nil {
		return err
	}
	// Shield the freshly stored run from the retention sweep until the
	// 200 is written, like PUT does for its run.
	s.markIngesting(name, 1)
	defer s.markIngesting(name, -1)

	mu := s.runMu.forName(name)
	mu.Lock()
	ls, err := s.openStream(name, false)
	if err != nil {
		mu.Unlock()
		if errors.Is(err, fs.ErrNotExist) {
			return notFound(fmt.Sprintf("no live stream for run %q", name))
		}
		return err
	}
	// On any failure the session stays registered and appendable: an
	// incomplete stream continues, a store failure retries.
	sess, err := ls.Finish(s.scheme)
	if err == nil {
		s.live.Remove(name)
		s.refreshCached(name, sess)
	}
	seq := ls.Seq()
	mu.Unlock()
	var inc *live.IncompleteError
	if !errors.As(err, &inc) {
		// An incomplete stream is the client's to continue, not a
		// backend outcome.
		s.brk.note(err)
	}
	if err != nil {
		return writeFailed("finishing run %q: %w", name, err)
	}
	// Sealed sessions hold the run they just stored: no decode, no error.
	rn, _, err := sess.Document()
	if err != nil {
		return fmt.Errorf("finishing run %q: %w", name, err)
	}
	s.logf("server: finished streamed run %q (%d events, %d vertices)", name, seq, rn.NumVertices())
	if s.maxRuns > 0 {
		if _, err := s.EnforceMaxRuns(s.maxRuns); err != nil {
			s.logf("server: retention sweep after finish %q: %v", name, err)
		}
	}
	respond().num("edges", rn.NumEdges()).num("events", seq).str("run", name).
		num("snapshot_bytes", sess.SnapshotBytes).str("snapshot_version", sess.SnapshotVersion.String()).
		num("vertices", rn.NumVertices()).send(w, http.StatusOK)
	return nil
}

// handleRunStatus answers GET /runs/{name} — the per-run twin of
// /runs?run=R, distinguishing live streams from finished runs.
func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) error {
	return s.writeRunStatus(w, r.PathValue("name"))
}

// writeRunStatus writes one run's status: live-session progress while a
// stream is open, stored-run statistics once finished. Shared by
// GET /runs/{name} and the /runs?run=R detail branch.
func (s *Server) writeRunStatus(w http.ResponseWriter, name string) error {
	view, release, err := s.resolveRun(name)
	if err != nil {
		return err
	}
	defer release()
	jw := respond()
	if err := view.status(jw, name); err != nil {
		jw.release()
		return fmt.Errorf("loading run %q: %w", name, err)
	}
	jw.send(w, http.StatusOK)
	return nil
}

// clearStreamState deletes name's durable stream state, then drops its
// live session, reporting whether either existed. A failed delete leaves
// the session registered, answering until a retry. Callers hold the
// run's write lock.
func (s *Server) clearStreamState(name string) (bool, error) {
	had, err := live.DeleteState(s.st, name)
	if err != nil {
		return false, err
	}
	return s.live.Remove(name) != nil || had, nil
}

// SweepIdleStreams expires live sessions idle for at least ttl, clearing
// them exactly as a DELETE would — an abandoned stream (a client that
// crashed mid-run and never resumed) must not hold its applier (the
// labeler, copy table and namer) and its applied-event record in
// memory forever; one whose clear fails stays for the next
// sweep. Activity is anything that touches the session: appends,
// finishes and queries all stamp it. Returns the expired run names;
// /healthz counts them cumulatively as streams_expired. provserve runs
// this on a ticker when started with -stream-ttl; it is exported for
// embedders with their own schedule.
func (s *Server) SweepIdleStreams(ttl time.Duration) []string {
	if !s.stream || ttl <= 0 {
		return nil
	}
	var expired []string
	for _, name := range s.live.Names() {
		mu := s.runMu.forName(name)
		mu.Lock()
		if ls := s.live.Get(name); ls != nil && time.Since(ls.LastActive()) >= ttl {
			if _, err := s.clearStreamState(name); err != nil {
				s.logf("server: expiring idle stream %q: %v (kept for the next sweep)", name, err)
			} else {
				s.streamsExpired.Add(1)
				expired = append(expired, name)
				s.logf("server: expired idle stream %q (last active %s ago)",
					name, time.Since(ls.LastActive()).Round(time.Second))
			}
		}
		mu.Unlock()
	}
	return expired
}
