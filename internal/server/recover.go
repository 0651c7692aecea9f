package server

import (
	"errors"
	"time"

	"repro/internal/live"
	"repro/internal/store"
)

// recover.go is the streaming path's proactive side: crash recovery at
// startup (instead of lazily on first touch) and an idle-TTL sweep that
// retires abandoned live sessions. Both reuse the lazy path's building
// blocks — openStream under the run's write lock, clearStreamState —
// so a run recovered eagerly is indistinguishable from one resurrected
// by its first query, and an expired stream leaves exactly as little
// behind as a DELETE.

// RecoverStreams eagerly rebuilds every live session that has durable
// stream state, so a restarted server answers its first query or append
// from memory instead of paying a replay on the request path. The scan
// is driven by the backend's event-log listing; for each log the lazy
// path's rules apply: a run that is also stored was finished (or
// overwritten by a PUT) before the crash cleaned its log, so the store
// wins and the stale stream state is deleted; anything else is
// recovered and registered. Per-run failures are logged and skipped —
// one corrupt log must not keep the server from coming up — and only a
// failure to list the logs at all is returned. provserve calls this
// before listening when started with -recover-at-start; it is exported
// so embedders can do the same.
func (s *Server) RecoverStreams() (recovered, cleaned int, err error) {
	if !s.stream {
		return 0, 0, nil
	}
	names, err := live.ListStreams(s.st)
	if err != nil {
		s.brk.note(err)
		return 0, 0, err
	}
	for _, name := range names {
		if store.ValidRunName(name) != nil {
			// Not a name this server could have written (the append path
			// validates first); leave foreign blobs alone.
			continue
		}
		mu := s.runMu.forName(name)
		mu.Lock()
		// A session already live means an append raced the scan and
		// resurrected it; otherwise the lazy path's rules apply.
		if s.live.Get(name) == nil {
			switch _, err := s.openStream(name, true); {
			case errors.Is(err, errFinished):
				// Finish persisted the run but crashed before cleaning the
				// log (or a PUT overwrote a streamed name). The stored run is
				// the acknowledged state; the leftover stream state is garbage.
				if _, err := s.clearStreamState(name); err != nil {
					s.logf("server: startup recovery: run %q is stored, cleaning stale stream state: %v", name, err)
					break
				}
				cleaned++
				s.logf("server: startup recovery: run %q is stored, cleaned stale stream state", name)
			case err != nil:
				s.logf("server: startup recovery: %v (left for lazy recovery)", err)
			default:
				recovered++
			}
		}
		mu.Unlock()
	}
	return recovered, cleaned, nil
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
