package server

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"sort"
)

// delete.go is the run lifecycle's exit path: DELETE /runs/{name}
// removes a stored run and its label snapshot, and the retention sweep
// (Config.MaxRuns / provserve -max-runs) applies the same primitive
// automatically so a long-lived ingesting server stops accumulating
// runs forever. Deletion shares the write path's gate: it is enabled by
// Config.EnableIngest or EnableStream and coordinates with loads and
// ingests on the same striped per-run-name locks — a DELETE holds the
// write side across the backend delete and the cache invalidation, so
// a concurrent cache-miss load can never observe the run half-gone or
// resurrect a session for it (the delete-side twin of the ingest
// torn-session guarantee), and the cache's generation fence keeps any
// load already in flight from landing its pre-delete result in the
// cache.

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) error {
	name, err := s.writeTarget(r, s.ingest || s.stream, "ingest or streaming")
	if err != nil {
		return err
	}
	err = s.deleteRun(name)
	s.brk.note(err)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return notFound(fmt.Sprintf("unknown run %q", name))
	case err != nil:
		// Transient deletes are side-effect-free by contract: nothing was
		// removed, so the client may retry the DELETE verbatim.
		return fmt.Errorf("deleting run %q: %w", name, err)
	default:
		s.logf("server: deleted run %q", name)
		respond().boolean("deleted", true).str("run", name).send(w, http.StatusOK)
	}
	return nil
}

// deleteRun is DELETE's removeRun under the run's write lock, so no
// cache-miss load can interleave: a load either completes before the
// backend delete (and is then invalidated and generation-fenced) or
// starts after it (and reports the run missing). A run being streamed
// but never finished has no stored blobs, so DeleteRun reports
// ErrNotExist — that is still a successful delete when stream state
// existed.
func (s *Server) deleteRun(name string) error {
	mu := s.runMu.forName(name)
	mu.Lock()
	defer mu.Unlock()
	hadStream, err := s.removeRun(name)
	if hadStream && errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// removeRun clears name's stream state on a streaming server, so a
// deleted run is never resurrected as a live session from a stale log,
// then deletes the stored run and drops its cached session, reporting
// whether stream state existed. A failed clear removes nothing else
// and leaves the stream live (clearStreamState), so a delete never
// succeeds while its event log or checkpoint survives. The cache is
// invalidated unconditionally — on ErrNotExist a session cached before
// some external process removed the blobs is a zombie, and on any other
// error the backend may have deleted the pair partway (fs removes the
// document first), so a cached session could otherwise keep answering
// for a run that is already gone from the store. Callers hold the run's
// write lock.
func (s *Server) removeRun(name string) (hadStream bool, err error) {
	if s.stream {
		if hadStream, err = s.clearStreamState(name); err != nil {
			return false, err
		}
	}
	err = s.st.DeleteRun(name)
	s.cache.Invalidate(name)
	return hadStream, err
}

// deleteIdleRun is the retention sweep's delete: it re-checks the
// in-flight-ingest set under the run's write lock and refuses (ok
// false, nil error) when a PUT for the name is executing. The sweep's
// up-front snapshot of that set goes stale the moment it is taken — a
// client could overwrite a chosen victim and be acknowledged while the
// sweep works through its list — but a PUT registers in s.ingesting
// before it takes the stripe lock, so any ingest not visible to this
// check strictly follows the delete and re-creates the run. An explicit
// DELETE request deliberately skips this check: last-writer-wins is the
// contract between clients racing a name; only the *automatic* sweep
// must never cancel an acknowledged write.
func (s *Server) deleteIdleRun(name string) (bool, error) {
	mu := s.runMu.forName(name)
	mu.Lock()
	defer mu.Unlock()
	s.ingestingMu.Lock()
	busy := s.ingesting[name] > 0
	s.ingestingMu.Unlock()
	if busy {
		return false, nil
	}
	_, err := s.removeRun(name)
	return err == nil, err
}

// EnforceMaxRuns deletes stored runs until at most max remain. A run
// with an ingest in flight is never a victim: a PUT acknowledged
// between this sweep's listing and its deletes must not be the sweep's
// victim, and the PUT or /finish that sweeps after storing its own run
// still counts as in flight, so it never deletes that run. Everything
// else is ordered by value — cache membership is query-driven, so
// cached means hot: cold (never-queried) runs go first, by ascending
// name for deterministic sweeps, and only when those run out are
// cached sessions deleted too, least-recently-used first. A bound
// below the hot working set therefore does evict hot runs. Returns the
// deleted names. The write path calls this after every successful PUT
// or /finish when Config.MaxRuns is set; it is exported so deployments
// can run retention on their own schedule too.
//
// A run whose PUT has completed but that nobody has queried is fair
// game the moment its handler returns: at the bound, ingest-then-query
// clients should query promptly (making the run hot) or size MaxRuns
// above their working set.
func (s *Server) EnforceMaxRuns(max int) ([]string, error) {
	if max < 1 {
		return nil, nil
	}
	names, err := s.st.Runs()
	if err != nil {
		return nil, err
	}
	excess := len(names) - max
	if excess <= 0 {
		return nil, nil
	}
	stored := make(map[string]bool, len(names))
	for _, n := range names {
		stored[n] = true
	}
	s.ingestingMu.Lock()
	keep := make(map[string]bool, len(s.ingesting))
	for n := range s.ingesting {
		keep[n] = true
	}
	s.ingestingMu.Unlock()
	hot := s.cache.Names() // MRU first
	hotRank := make(map[string]int, len(hot))
	for i, n := range hot {
		hotRank[n] = i
	}
	var victims []string
	for _, n := range names { // ListRuns is sorted: cold victims in name order
		if !keep[n] {
			if _, isHot := hotRank[n]; !isHot {
				victims = append(victims, n)
			}
		}
	}
	for i := len(hot) - 1; i >= 0; i-- { // then cached runs, LRU first
		if n := hot[i]; stored[n] && !keep[n] {
			victims = append(victims, n)
		}
	}
	var deleted []string
	for _, n := range victims {
		if excess <= 0 {
			break
		}
		ok, err := s.deleteIdleRun(n)
		switch {
		case err == nil && ok:
			deleted = append(deleted, n)
			excess--
		case err == nil:
			// An ingest for this name began after the victims were
			// chosen: the run is being (re)written right now and is no
			// longer a victim. The store stays one over for this round;
			// the next sweep re-evaluates.
		case errors.Is(err, fs.ErrNotExist):
			// Concurrently deleted: the store shrank without us.
			excess--
		default:
			return deleted, err
		}
	}
	if len(deleted) > 0 {
		sort.Strings(deleted)
		s.logf("server: retention sweep deleted %d run(s): %v", len(deleted), deleted)
	}
	return deleted, nil
}
