package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro/internal/dag"
	"repro/internal/live"
	"repro/internal/rpq"
	"repro/internal/spec"
)

// maxRPQBody bounds a /rpq request body; rpq.MaxPatternLen bounds the
// pattern inside it, so this only needs headroom for the envelope.
const maxRPQBody = rpq.MaxPatternLen + 4096

// rpqRequest is the POST /rpq body.
type rpqRequest struct {
	Run     string `json:"run"`
	From    string `json:"from"`
	To      string `json:"to"`
	Pattern string `json:"pattern"`
}

// handleRPQ answers POST /rpq: does some path from 'from' to 'to' in
// the run spell a word matching 'pattern' (a regular expression over
// module labels — see internal/rpq)? Like /reachable it is admission-
// gated, answers live streaming sessions transparently, and keeps
// serving resident runs in degraded mode. Bad patterns — syntax errors
// and patterns whose determinization would exceed the DFA state
// budget — are client errors (400), never engine failures.
func (s *Server) handleRPQ(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxRPQBody)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	var req rpqRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "malformed request body: %v", err)
		return
	}
	if req.From == "" || req.To == "" {
		writeErr(w, http.StatusBadRequest, "missing 'from' or 'to' field")
		return
	}
	if req.Pattern == "" {
		writeErr(w, http.StatusBadRequest, "missing 'pattern' field (use \"()\" for the empty word)")
		return
	}
	// Compile before resolving the run: a bad pattern answers 400
	// without touching any session, and no run lock is held while the
	// pattern is parsed.
	sp := s.st.Spec()
	prog, err := rpq.Compile(req.Pattern, func(name string) (dag.VertexID, bool) {
		return sp.VertexOf(spec.ModuleName(name))
	})
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad pattern: %v", err)
		return
	}
	ls, release, sess, ok := s.resolveRun(w, req.Run)
	if !ok {
		return
	}
	if ls != nil {
		defer release()
	}
	var u, v dag.VertexID
	var okU, okV bool
	if ls != nil {
		u, okU = ls.Vertex(req.From)
		v, okV = ls.Vertex(req.To)
	} else {
		u, okU = sess.vertex(req.From)
		v, okV = sess.vertex(req.To)
	}
	if !okU || !okV {
		bad := req.From
		if okU {
			bad = req.To
		}
		writeErr(w, http.StatusNotFound, "unknown vertex %q", bad)
		return
	}
	m := rpq.NewMatcher(prog, s.rpqMaxStates)
	var match bool
	if ls != nil {
		// A live session has labels but no materialized edges; rebuild
		// the run graph from the streamed execution tree (vertex IDs
		// match the live numbering, so the online labels prune it).
		rr, rerr := ls.MaterializedRun()
		if rerr != nil {
			var inc *live.IncompleteError
			if errors.As(rerr, &inc) {
				writeErr(w, http.StatusConflict,
					"cannot answer a path query on run %q yet: %v", req.Run, inc.Err)
				return
			}
			writeErr(w, http.StatusInternalServerError,
				"materializing live run %q: %v", req.Run, rerr)
			return
		}
		match, err = m.Eval(rr.Graph, rr.Origin, ls.Reachable, u, v)
	} else {
		// Path queries are the one label-free walk: they need the run's
		// edges, so this is where a stored run's document gets decoded.
		rn, _, derr := sess.Document()
		if derr != nil {
			writeErr(w, http.StatusInternalServerError, "loading run %q: %v", req.Run, derr)
			return
		}
		match, err = m.Eval(rn.Graph, rn.Origin, sess.Labels.Reachable, u, v)
	}
	if err != nil {
		if errors.Is(err, rpq.ErrStateBudget) {
			writeErr(w, http.StatusBadRequest, "bad pattern: %v", err)
			return
		}
		writeErr(w, http.StatusInternalServerError, "evaluating path query: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"run":     req.Run,
		"from":    req.From,
		"to":      req.To,
		"pattern": req.Pattern,
		"match":   match,
	})
}
