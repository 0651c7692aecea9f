package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/dag"
	"repro/internal/rpq"
	"repro/internal/spec"
)

// maxRPQBody bounds a /rpq request body; rpq.MaxPatternLen bounds the
// pattern inside it, so this only needs headroom for the envelope.
const maxRPQBody = rpq.MaxPatternLen + 4096

// handleRPQ answers POST /rpq: does some path from 'from' to 'to' in
// the run spell a word matching 'pattern' (a regular expression over
// module labels — see internal/rpq)? Like /reachable it is admission-
// gated, answers live streaming sessions transparently, and keeps
// serving resident runs in degraded mode. Bad patterns — syntax errors
// and patterns whose determinization would exceed the DFA state
// budget — are client errors (400), never engine failures. The body is
// decoded like /batch's (batchcodec.go).
func (s *Server) handleRPQ(w http.ResponseWriter, r *http.Request) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxRPQBody)
	sc := getBatchScratch()
	defer sc.release()
	if err := sc.readBody(r.Body); err != nil {
		return badRequestf("reading request body: %w", err)
	}
	if err := parseRPQRequest(sc.body, sc); err != nil {
		return badRequestf("malformed request body: %w", err)
	}
	runName, from, to, pattern := string(sc.run), string(sc.from), string(sc.to), string(sc.pattern)
	if from == "" || to == "" {
		return badRequestf("missing 'from' or 'to' field")
	}
	if pattern == "" {
		return badRequestf("missing 'pattern' field (use \"()\" for the empty word)")
	}
	// Compile before resolving the run: a bad pattern answers 400
	// without touching any session, and no run lock is held while the
	// pattern is parsed.
	sp := s.st.Spec()
	prog, err := rpq.Compile(pattern, func(name string) (dag.VertexID, bool) {
		return sp.VertexOf(spec.ModuleName(name))
	})
	if err != nil {
		return badRequestf("bad pattern: %w", err)
	}
	view, release, err := s.resolveRun(runName)
	if err != nil {
		return err
	}
	defer release()
	u, err := vertexParam(view.Namer(), from)
	if err != nil {
		return err
	}
	v, err := vertexParam(view.Namer(), to)
	if err != nil {
		return err
	}
	// Path queries are the one label-free walk: they need the run's
	// edges, which is where a stored run's document gets decoded and a
	// live run's execution tree materialized.
	g, err := view.graph()
	if err != nil {
		return fmt.Errorf("path query on run %q: %w", runName, err)
	}
	match, err := rpq.NewMatcher(prog, s.rpqMaxStates).Eval(g.Graph, g.Origin, view.Reachable, u, v)
	if err != nil {
		if errors.Is(err, rpq.ErrStateBudget) {
			err = badRequestf("bad pattern: %w", err)
		}
		return fmt.Errorf("evaluating path query: %w", err)
	}
	respond().str("from", from).boolean("match", match).str("pattern", pattern).
		str("run", runName).str("to", to).send(w, http.StatusOK)
	return nil
}
