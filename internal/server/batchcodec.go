package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/dag"
)

// The /batch and /rpq request decoders. /batch is the serving hot path —
// a cache-hit request is pure CPU — and encoding/json costs it one
// reflection-driven allocation per decoded string. This hand-rolled
// parser runs in a pooled scratch instead: the body is read into a
// reused buffer and pair references are parsed as byte slices into it,
// resolved against the session's name index without string
// conversions. With the response in the pooled writer (jsonwriter.go),
// a warm /batch request allocates O(1) regardless of batch size.
//
// /batch accepts both pair element forms:
//
//	{"run":"r1","pairs":[["b2","c3"],["12","34"]]}   string refs
//	{"run":"r1","pairs":[[12,34],[7,"c3"]]}          numeric vertex IDs
//
// A body either decoder accepts is valid JSON, and its texts are what
// encoding/json decodes (FuzzBatchRequestOracle, FuzzRPQRequestOracle):
// unknown keys are skipped, a repeated key keeps its last value, a lone
// surrogate escape is U+FFFD. Two divergences are by design: keys match
// exactly, where encoding/json also accepts case-folded ones, and raw
// invalid UTF-8 in a string is kept, where encoding/json substitutes
// U+FFFD. A known key with a null value is malformed.

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
	sc.run, sc.from, sc.to, sc.pattern = nil, nil, nil, nil
	sc.tokens = sc.tokens[:0]
	sc.pairs = sc.pairs[:0]
	sc.results = sc.results[:0]
	return sc
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

// syntaxError is any malformed-body condition; the handlers map it to
// 400.
type syntaxError struct {
	off int
	msg string
}

func (e *syntaxError) Error() string {
	return fmt.Sprintf("invalid request at offset %d: %s", e.off, e.msg)
}

// jparser is a minimal JSON parser over the request bytes.
type jparser struct {
	data []byte
	pos  int
}

func (p *jparser) syntax(msg string) error { return &syntaxError{off: p.pos, msg: msg} }

func (p *jparser) ws() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (p *jparser) eat(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// parseBatchRequest decodes {"run":string,"pairs":[[ref,ref],...]} into
// sc.run and sc.tokens. Returns errBatchTooLarge once pairs exceed
// maxPairs, or a *syntaxError for malformed input.
func parseBatchRequest(data []byte, sc *batchScratch, maxPairs int) error {
	p := &jparser{data: data}
	return p.object(func(key []byte) (err error) {
		switch string(key) {
		case "run":
			sc.run, err = p.str()
		case "pairs":
			err = p.pairs(sc, maxPairs)
		default:
			err = p.skipValue(0)
		}
		return err
	})
}

// parseRPQRequest decodes {"run","from","to","pattern"}, all strings,
// into the scratch's fields, or returns a *syntaxError.
func parseRPQRequest(data []byte, sc *batchScratch) error {
	p := &jparser{data: data}
	return p.object(func(key []byte) (err error) {
		switch string(key) {
		case "run":
			sc.run, err = p.str()
		case "from":
			sc.from, err = p.str()
		case "to":
			sc.to, err = p.str()
		case "pattern":
			sc.pattern, err = p.str()
		default:
			err = p.skipValue(0)
		}
		return err
	})
}

// object parses the whole input as one JSON object, calling member with
// each key and the parser at its value, which member must consume.
func (p *jparser) object(member func(key []byte) error) error {
	p.ws()
	if !p.eat('{') {
		return p.syntax("expected '{'")
	}
	p.ws()
	for closed := p.eat('}'); !closed; {
		p.ws()
		key, err := p.str()
		if err != nil {
			return err
		}
		p.ws()
		if !p.eat(':') {
			return p.syntax("expected ':' after object key")
		}
		p.ws()
		if err := member(key); err != nil {
			return err
		}
		p.ws()
		if !p.eat(',') {
			if closed = p.eat('}'); !closed {
				return p.syntax("expected ',' or '}'")
			}
		}
	}
	p.ws()
	if p.pos != len(p.data) {
		return p.syntax("trailing data after request object")
	}
	return nil
}

// pairs parses the [[ref,ref],...] array into sc.tokens. Truncating
// first keeps encoding/json's last-key-wins semantics when "pairs"
// appears more than once.
func (p *jparser) pairs(sc *batchScratch, maxPairs int) error {
	sc.tokens = sc.tokens[:0]
	if !p.eat('[') {
		return p.syntax("pairs must be an array")
	}
	p.ws()
	if p.eat(']') {
		return nil
	}
	for {
		if len(sc.tokens) >= maxPairs {
			return errBatchTooLarge
		}
		p.ws()
		if !p.eat('[') {
			return p.syntax("each pair must be a two-element array")
		}
		var pair [2]vertexToken
		for k := 0; k < 2; k++ {
			p.ws()
			tok, err := p.vertexRef()
			if err != nil {
				return err
			}
			pair[k] = tok
			p.ws()
			if k == 0 && !p.eat(',') {
				return p.syntax("each pair must have two elements")
			}
		}
		if !p.eat(']') {
			return p.syntax("each pair must have exactly two elements")
		}
		sc.tokens = append(sc.tokens, pair)
		p.ws()
		if p.eat(',') {
			continue
		}
		if p.eat(']') {
			return nil
		}
		return p.syntax("expected ',' or ']' in pairs")
	}
}

// vertexRef parses one pair element: a string ("b2", "12") or a bare
// non-negative integer (12).
func (p *jparser) vertexRef() (vertexToken, error) {
	if p.pos >= len(p.data) {
		return vertexToken{}, p.syntax("truncated pair")
	}
	if p.data[p.pos] == '"' {
		s, err := p.str()
		if err != nil {
			return vertexToken{}, err
		}
		return vertexToken{raw: s, id: -1}, nil
	}
	if c := p.data[p.pos]; c != '-' && (c < '0' || c > '9') {
		return vertexToken{}, p.syntax("pair element must be a string or non-negative integer")
	}
	num, err := p.number()
	if err != nil {
		return vertexToken{}, err
	}
	n := 0
	for _, c := range num {
		if c < '0' || c > '9' {
			return vertexToken{}, p.syntax("pair element must be a non-negative integer")
		}
		if n < (math.MaxInt32-9)/10 {
			n = n*10 + int(c-'0')
		} else {
			// Out of dag.VertexID range: clamp so it resolves to
			// "unknown vertex", like any other nonexistent numeric ID.
			n = math.MaxInt32
		}
	}
	return vertexToken{raw: num, id: n}, nil
}

// number scans one JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// and returns its text. A digit after a leading zero is not part of the
// number, so the caller rejects it as a missing separator.
func (p *jparser) number() ([]byte, error) {
	start := p.pos
	p.eat('-')
	if !p.eat('0') && p.digits() == 0 {
		return nil, p.syntax("invalid number")
	}
	if p.eat('.') && p.digits() == 0 {
		return nil, p.syntax("invalid number")
	}
	if p.eat('e') || p.eat('E') {
		if !p.eat('+') {
			p.eat('-')
		}
		if p.digits() == 0 {
			return nil, p.syntax("invalid number")
		}
	}
	return p.data[start:p.pos], nil
}

// digits consumes a run of decimal digits and returns its length.
func (p *jparser) digits() int {
	start := p.pos
	for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
		p.pos++
	}
	return p.pos - start
}

// str parses a JSON string and returns its bytes — a zero-copy subslice
// of the input when the string has no escapes, a decoded copy otherwise.
func (p *jparser) str() ([]byte, error) {
	if !p.eat('"') {
		return nil, p.syntax("expected string")
	}
	start := p.pos
	for p.pos < len(p.data) {
		switch c := p.data[p.pos]; {
		case c == '"':
			s := p.data[start:p.pos]
			p.pos++
			return s, nil
		case c == '\\':
			return p.strEscaped(start)
		case c < 0x20:
			return nil, p.syntax("control character in string")
		default:
			p.pos++
		}
	}
	return nil, p.syntax("unterminated string")
}

// strEscaped finishes parsing a string containing escapes, decoding
// into a fresh buffer (the rare path: vertex names and run names are
// plain ASCII in practice).
func (p *jparser) strEscaped(start int) ([]byte, error) {
	out := append([]byte(nil), p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return out, nil
		case c < 0x20:
			return nil, p.syntax("control character in string")
		case c != '\\':
			out = append(out, c)
			p.pos++
		default:
			p.pos++
			if p.pos >= len(p.data) {
				return nil, p.syntax("truncated escape")
			}
			e := p.data[p.pos]
			p.pos++
			switch e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r, err := p.hex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					r = p.lowSurrogate(r)
				}
				out = utf8.AppendRune(out, r)
			default:
				return nil, p.syntax("invalid escape")
			}
		}
	}
	return nil, p.syntax("unterminated string")
}

// lowSurrogate completes the UTF-16 pair whose first half is hi. Like
// encoding/json it consumes the next \u escape only if the two decode
// to one rune; otherwise hi alone is U+FFFD and that escape stands on
// its own.
func (p *jparser) lowSurrogate(hi rune) rune {
	start := p.pos
	if p.eat('\\') && p.eat('u') {
		if lo, err := p.hex4(); err == nil {
			if r := utf16.DecodeRune(hi, lo); r != utf8.RuneError {
				return r
			}
		}
	}
	p.pos = start
	return utf8.RuneError
}

func (p *jparser) hex4() (rune, error) {
	if p.pos+4 > len(p.data) {
		return 0, p.syntax("truncated \\u escape")
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := p.data[p.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, p.syntax("invalid \\u escape")
		}
	}
	p.pos += 4
	return r, nil
}

// skipValue skips any JSON value (for unknown object keys).
func (p *jparser) skipValue(depth int) error {
	if depth > 64 {
		return p.syntax("value nested too deeply")
	}
	p.ws()
	if p.pos >= len(p.data) {
		return p.syntax("truncated value")
	}
	switch c := p.data[p.pos]; {
	case c == '"':
		// Full string parse (escapes validated) so malformed bodies are
		// rejected like encoding/json would, just with the value unused.
		_, err := p.str()
		return err
	case c == '{' || c == '[':
		open, closing := c, byte('}')
		if open == '[' {
			closing = ']'
		}
		p.pos++
		p.ws()
		if p.eat(closing) {
			return nil
		}
		for {
			if open == '{' {
				p.ws()
				if _, err := p.str(); err != nil {
					return err
				}
				p.ws()
				if !p.eat(':') {
					return p.syntax("expected ':' after object key")
				}
			}
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			p.ws()
			if p.eat(',') {
				continue
			}
			if p.eat(closing) {
				return nil
			}
			return p.syntax("expected ',' or close")
		}
	case c == 't':
		return p.lit("true")
	case c == 'f':
		return p.lit("false")
	case c == 'n':
		return p.lit("null")
	case c == '-' || (c >= '0' && c <= '9'):
		_, err := p.number()
		return err
	default:
		return p.syntax("unexpected character")
	}
}

func (p *jparser) lit(s string) error {
	if p.pos+len(s) > len(p.data) || string(p.data[p.pos:p.pos+len(s)]) != s {
		return p.syntax("invalid literal")
	}
	p.pos += len(s)
	return nil
}
