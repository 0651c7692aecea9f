package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/dag"
	"repro/internal/run"
	"repro/internal/spec"
)

// The one response writer. Every body except /healthz's is one flat
// JSON object appended into a pooled buffer and sent with one Write,
// byte for byte what json.NewEncoder wrote for it: fields in the order
// the handler adds them (sorted keys for the former maps, declaration
// order for /batch's struct), HTML-safe escaping, encoding/json's float
// format, [] for an empty array, a trailing newline. /healthz nests its
// stats structs and keeps encoding/json (writeJSON).

// jsonWriter is one response body under construction.
type jsonWriter struct {
	buf  []byte
	cone []dag.VertexID // /lineage's cone scratch, pooled with its body
}

var jsonWriterPool = sync.Pool{New: func() any { return new(jsonWriter) }}

// respond returns a pooled writer holding an open, empty object. send
// returns it to the pool; a handler that fails before sending calls
// release instead.
func respond() *jsonWriter {
	jw := jsonWriterPool.Get().(*jsonWriter)
	jw.buf = append(jw.buf[:0], '{')
	jw.cone = jw.cone[:0]
	return jw
}

func (jw *jsonWriter) release() { jsonWriterPool.Put(jw) }

// jsonContentType is every JSON response's Content-Type value, one
// slice shared by all of them and set under the canonical key, so no
// response canonicalizes the key or allocates the value. Its length is
// its capacity: Header.Add regrows it and Header.Set replaces it, and
// neither writes into it.
var jsonContentType = []string{"application/json"}

// send closes the object and writes it as the response with status.
func (jw *jsonWriter) send(w http.ResponseWriter, status int) {
	jw.buf = append(jw.buf, "}\n"...)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(jw.buf)
	jw.release()
}

// key appends field k's separator and name and returns the buffer.
// Keys are plain ASCII and need no escaping.
func (jw *jsonWriter) key(k string) []byte {
	if len(jw.buf) > 1 {
		jw.buf = append(jw.buf, ',')
	}
	jw.buf = append(jw.buf, '"')
	jw.buf = append(jw.buf, k...)
	return append(jw.buf, '"', ':')
}

func (jw *jsonWriter) str(k, v string) *jsonWriter {
	jw.buf = appendJSONString(jw.key(k), v)
	return jw
}

func (jw *jsonWriter) num(k string, v int) *jsonWriter {
	jw.buf = strconv.AppendInt(jw.key(k), int64(v), 10)
	return jw
}

func (jw *jsonWriter) boolean(k string, v bool) *jsonWriter {
	jw.buf = strconv.AppendBool(jw.key(k), v)
	return jw
}

// float adds a finite float64 the way encoding/json formats one:
// shortest 'f' form, switching to 'e' below 1e-6 and from 1e21 on, with
// a one-digit negative exponent unpadded (1e-7, not 1e-07).
func (jw *jsonWriter) float(k string, v float64) *jsonWriter {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(jw.key(k), v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b = append(b[:n-2], b[n-1])
	}
	jw.buf = b
	return jw
}

// names adds an array of vertex names, rendered by nm straight into
// the body, escaped if escape is set (see namesNeedEscaping).
func (jw *jsonWriter) names(k string, nm *run.Namer, vs []dag.VertexID, escape bool) *jsonWriter {
	if escape {
		return jw.array(k, len(vs), func(b []byte, i int) []byte { return appendJSONString(b, nm.Name(vs[i])) })
	}
	jw.buf = append(nm.AppendQuotedNames(append(jw.key(k), '['), vs), ']')
	return jw
}

// namesNeedEscaping reports whether vertex names over sp may need JSON
// escaping. A rank is decimal digits, so they may only when a module
// name does.
func namesNeedEscaping(sp *spec.Spec) bool {
	return slices.ContainsFunc(sp.Names, func(m spec.ModuleName) bool { return !plainJSON(string(m)) })
}

func (jw *jsonWriter) bools(k string, vs []bool) *jsonWriter {
	return jw.array(k, len(vs), func(b []byte, i int) []byte { return strconv.AppendBool(b, vs[i]) })
}

// array adds an array of n elements, the i-th appended by elem(b, i)
// to b. The body is passed along rather than reloaded through jw for
// each element: /lineage can append thousands of escaped names.
func (jw *jsonWriter) array(k string, n int, elem func(b []byte, i int) []byte) *jsonWriter {
	b := append(jw.key(k), '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, i)
	}
	jw.buf = append(b, ']')
	return jw
}

// appendJSONString appends s as a JSON string. Plain text (see
// plainJSON) is copied as is; anything else takes encoding/json's own
// escaping, so the result always equals what json.Marshal writes.
func appendJSONString(dst []byte, s string) []byte {
	if !plainJSON(s) {
		b, _ := json.Marshal(s) // a string always marshals
		return append(dst, b...)
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// plainJSON reports whether s is ASCII from space up, without quote,
// backslash or HTML-significant bytes: text a JSON string holds as is.
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if !jsonPlain[s[i]] {
			return false
		}
	}
	return true
}

// jsonPlain marks the bytes encoding/json copies into a string
// unescaped when it escapes HTML (its htmlSafeSet).
var jsonPlain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// writeErr answers with status and the body {"error": message}.
func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	respond().str("error", fmt.Sprintf(format, args...)).send(w, status)
}

// writeJSON encodes v with encoding/json: /healthz's body, whose stats
// structs nest.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
