package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/dag"
)

// The /batch and /rpq request decoders. /batch is the serving hot path —
// a cache-hit request is pure CPU — and encoding/json costs it one
// reflection-driven allocation per decoded string. So a body is first
// matched in one step against the layout json.Marshal writes, the one
// every in-repo client sends: one object with no white space, each of
// the endpoint's keys at most once and no other key, string values
// whose bytes encoding/json copies unescaped (jsonPlain, the response
// writer's table), and /batch pair elements that are such strings or
// non-negative integers with no leading zero. A matched body is read in
// place: its texts are subslices of the pooled body buffer, resolved
// against the session's namer without string conversions, so a warm
// /batch allocates O(1) regardless of batch size.
//
// At the first byte off that layout the scratch is reset and the same
// bytes go to json.Unmarshal into the request struct (batchRequest,
// rpqRequest), so every body is decoded exactly as encoding/json decodes
// it: white space, escapes, case-folded, repeated and unknown keys,
// nulls, invalid UTF-8. There are no divergences to document
// (FuzzBatchRequestOracle, FuzzRPQRequestOracle). /batch accepts both
// pair element forms:
//
//	{"run":"r1","pairs":[["b2","c3"],["12","34"]]}   string refs
//	{"run":"r1","pairs":[[12,34],[7,"c3"]]}          numeric vertex IDs
//
// Any other element, or a pair of other than two elements, is malformed.

// vertexToken is one parsed pair element: raw always holds the
// reference text for error messages; id >= 0 carries the value of a
// numeric (unquoted) element, id < 0 marks a string element to resolve
// by name first.
type vertexToken struct {
	raw []byte
	id  int
}

// batchScratch is the per-request scratch a pooled /batch or /rpq
// request runs in. All slices are reused across requests; their
// capacity is bounded by the request body limit and the batch size
// limit.
type batchScratch struct {
	body              []byte
	run               []byte
	tokens            [][2]vertexToken
	pairs             [][2]dag.VertexID
	results           []bool
	from, to, pattern []byte // /rpq's fields
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch() *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	sc.body = sc.body[:0]
	sc.resetRequest()
	sc.pairs = sc.pairs[:0]
	sc.results = sc.results[:0]
	return sc
}

// resetRequest clears what a request decoder fills in.
func (sc *batchScratch) resetRequest() {
	sc.run, sc.from, sc.to, sc.pattern = nil, nil, nil, nil
	sc.tokens = sc.tokens[:0]
}

func (sc *batchScratch) release() { batchScratchPool.Put(sc) }

// readBody reads r into the scratch's reused body buffer.
func (sc *batchScratch) readBody(r io.Reader) error {
	buf := sc.body
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4096)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			sc.body = buf
			return nil
		}
		if err != nil {
			sc.body = buf
			return err
		}
	}
}

// errBatchTooLarge signals more pairs than the server's limit; the
// handler maps it to 413.
var errBatchTooLarge = errors.New("too many pairs")

// batchRequest and rpqRequest are the request bodies as encoding/json
// decodes them, for every body off json.Marshal's layout.
type batchRequest struct {
	Run   string              `json:"run"`
	Pairs [][]json.RawMessage `json:"pairs"`
}

type rpqRequest struct {
	Run     string `json:"run"`
	From    string `json:"from"`
	To      string `json:"to"`
	Pattern string `json:"pattern"`
}

// parseBatchRequest decodes {"run":string,"pairs":[[ref,ref],...]} into
// sc.run and sc.tokens, keeping at most maxPairs pairs. It returns
// errBatchTooLarge for a well-formed body of more pairs, or
// encoding/json's error (or a pair's) for a malformed one.
func parseBatchRequest(data []byte, sc *batchScratch, maxPairs int) error {
	if n, ok := matchBatch(data, sc, maxPairs); ok {
		if n > maxPairs {
			return errBatchTooLarge
		}
		return nil
	}
	sc.resetRequest()
	var req batchRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return err
	}
	sc.run = []byte(req.Run)
	for i, pair := range req.Pairs {
		if len(pair) != 2 {
			return fmt.Errorf("pair %d has %d elements, want 2", i, len(pair))
		}
		var tok [2]vertexToken
		for k, e := range pair {
			if e[0] == '"' {
				var s string
				json.Unmarshal(e, &s) // a JSON string always decodes
				tok[k] = vertexToken{raw: []byte(s), id: -1}
			} else if matchInt(e, 0) == len(e) {
				tok[k] = vertexToken{raw: e, id: clampedID(e)}
			} else {
				return fmt.Errorf("pair %d: element %d is not a string or a non-negative integer", i, k)
			}
		}
		if i < maxPairs {
			sc.tokens = append(sc.tokens, tok)
		}
	}
	if len(req.Pairs) > maxPairs {
		return errBatchTooLarge
	}
	return nil
}

// parseRPQRequest decodes {"run","from","to","pattern"}, all strings,
// into the scratch's fields, or returns encoding/json's error.
func parseRPQRequest(data []byte, sc *batchScratch) error {
	if matchRPQ(data, sc) {
		return nil
	}
	sc.resetRequest()
	var req rpqRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return err
	}
	sc.run, sc.from, sc.to, sc.pattern = []byte(req.Run), []byte(req.From), []byte(req.To), []byte(req.Pattern)
	return nil
}

// matchBatch matches a /batch body in json.Marshal's layout into sc,
// storing its first maxPairs pairs, and returns how many it holds. A
// false ok leaves sc partly filled.
func matchBatch(data []byte, sc *batchScratch, maxPairs int) (n int, ok bool) {
	seenPairs := false
	ok = matchObject(data, func(key []byte, i int) int {
		switch string(key) {
		case "run":
			return matchField(&sc.run, data, i)
		case "pairs":
			if seenPairs {
				return -1
			}
			seenPairs = true
			return matchPairs(data, i, sc, maxPairs, &n)
		}
		return -1
	})
	return n, ok
}

// matchRPQ matches a /rpq body in json.Marshal's layout into sc. A
// false result leaves sc partly filled.
func matchRPQ(data []byte, sc *batchScratch) bool {
	return matchObject(data, func(key []byte, i int) int {
		switch string(key) {
		case "run":
			return matchField(&sc.run, data, i)
		case "from":
			return matchField(&sc.from, data, i)
		case "to":
			return matchField(&sc.to, data, i)
		case "pattern":
			return matchField(&sc.pattern, data, i)
		}
		return -1
	})
}

// matchObject reports whether data is one object in json.Marshal's
// layout. value matches the value of key at data[i:] and returns the
// index past it, or -1 to decline the body.
func matchObject(data []byte, value func(key []byte, i int) int) bool {
	if len(data) < 2 || data[0] != '{' {
		return false
	}
	if data[1] == '}' {
		return len(data) == 2
	}
	for i := 1; ; i++ {
		key, j := matchString(data, i)
		if j < 0 || j == len(data) || data[j] != ':' {
			return false
		}
		if i = value(key, j+1); i < 0 || i == len(data) {
			return false
		}
		if data[i] == '}' {
			return i+1 == len(data)
		}
		if data[i] != ',' {
			return false
		}
	}
}

// matchString matches a string of jsonPlain bytes at data[i:] and
// returns its text and the index past it, or -1.
func matchString(data []byte, i int) ([]byte, int) {
	if i >= len(data) || data[i] != '"' {
		return nil, -1
	}
	for j := i + 1; j < len(data); j++ {
		if data[j] == '"' {
			return data[i+1 : j], j + 1
		}
		if !jsonPlain[data[j]] {
			break
		}
	}
	return nil, -1
}

// matchField matches a plain string at data[i:] into *dst, declining a
// key already seen.
func matchField(dst *[]byte, data []byte, i int) int {
	if *dst != nil {
		return -1
	}
	s, j := matchString(data, i)
	*dst = s
	return j
}

// matchInt matches an integer with no sign, fraction, exponent or
// leading zero at data[i:] and returns the index past it, or -1.
func matchInt(data []byte, i int) int {
	j := i
	for j < len(data) && data[j]-'0' <= 9 {
		j++
	}
	if j == i || (data[i] == '0' && j > i+1) {
		return -1
	}
	return j
}

// matchPairs matches the pairs array at data[i:], storing the first
// maxPairs pairs in sc.tokens and counting all of them in *n.
func matchPairs(data []byte, i int, sc *batchScratch, maxPairs int, n *int) int {
	if i >= len(data) || data[i] != '[' {
		return -1
	}
	if i++; i < len(data) && data[i] == ']' {
		return i + 1
	}
	for {
		if i >= len(data) || data[i] != '[' {
			return -1
		}
		var pair [2]vertexToken
		if pair[0], i = matchRef(data, i+1); i < 0 || i == len(data) || data[i] != ',' {
			return -1
		}
		if pair[1], i = matchRef(data, i+1); i < 0 || i == len(data) || data[i] != ']' {
			return -1
		}
		if *n < maxPairs {
			sc.tokens = append(sc.tokens, pair)
		}
		*n++
		if i++; i == len(data) {
			return -1
		}
		if data[i] == ']' {
			return i + 1
		}
		if data[i] != ',' {
			return -1
		}
		i++
	}
}

// matchRef matches one pair element at data[i:]: a plain string or a
// plain non-negative integer.
func matchRef(data []byte, i int) (vertexToken, int) {
	if i < len(data) && data[i] == '"' {
		s, j := matchString(data, i)
		return vertexToken{raw: s, id: -1}, j
	}
	j := matchInt(data, i)
	if j < 0 {
		return vertexToken{}, -1
	}
	return vertexToken{raw: data[i:j], id: clampedID(data[i:j])}, j
}

// clampedID is the value of a pair element's digits. One out of
// dag.VertexID range is clamped, so it resolves to "unknown vertex"
// like any other nonexistent numeric ID.
func clampedID(digits []byte) int {
	n := 0
	for _, c := range digits {
		if n >= (math.MaxInt32-9)/10 {
			return math.MaxInt32
		}
		n = n*10 + int(c-'0')
	}
	return n
}
