package server

import (
	"encoding/json"
	"strconv"
	"sync"

	"repro/internal/dag"
)

// The /lineage response encoder. A cone names up to every vertex of the
// run, and encoding/json over a map[string]any costs reflection plus a
// string header per name; this appends the response into a pooled
// buffer instead, byte for byte what json.NewEncoder wrote for
//
//	map[string]any{"run": run, "vertex": ref, "direction": dir,
//		"count": len(cone), "cone": names}
//
// (keys sorted, HTML-safe escaping, [] for an empty cone, a trailing
// newline). A warm /lineage request allocates O(1) regardless of cone
// size.

// lineageScratch is the per-request scratch a pooled /lineage request
// runs in, reused across requests.
type lineageScratch struct {
	cone []dag.VertexID
	out  []byte
}

var lineageScratchPool = sync.Pool{New: func() any { return new(lineageScratch) }}

func getLineageScratch() *lineageScratch {
	sc := lineageScratchPool.Get().(*lineageScratch)
	sc.cone = sc.cone[:0]
	sc.out = sc.out[:0]
	return sc
}

func (sc *lineageScratch) release() { lineageScratchPool.Put(sc) }

// appendLineageResponse encodes the /lineage response for cone into dst.
func appendLineageResponse(dst []byte, view runView, cone []dag.VertexID, dir, run, ref string) []byte {
	dst = append(dst, `{"cone":[`...)
	for i, u := range cone {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, view.Name(u))
	}
	dst = append(dst, `],"count":`...)
	dst = strconv.AppendInt(dst, int64(len(cone)), 10)
	dst = append(dst, `,"direction":`...)
	dst = appendJSONString(dst, dir)
	dst = append(dst, `,"run":`...)
	dst = appendJSONString(dst, run)
	dst = append(dst, `,"vertex":`...)
	dst = appendJSONString(dst, ref)
	return append(dst, "}\n"...)
}

// appendJSONString appends s as a JSON string. ASCII from space up,
// without quote, backslash or HTML-significant bytes, is copied as is;
// anything else takes encoding/json's own escaping, so the result
// always equals what json.Marshal writes.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonPlain[s[i]] {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// jsonPlain marks the bytes encoding/json copies into a string
// unescaped when it escapes HTML (its htmlSafeSet).
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()
