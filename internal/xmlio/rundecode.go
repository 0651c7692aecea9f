package xmlio

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/dag"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
)

// maxPooledBuf bounds the read buffer a pooled decoder keeps, so one
// oversized document does not stay pinned in the pool.
const maxPooledBuf = 1 << 20

var decoderPool = sync.Pool{New: func() any { return new(runDecoder) }}

// DecodeRun reads a run (and its data annotation, if any items are
// present) against the given specification and validates it. See the
// package documentation for the accepted grammar.
func DecodeRun(rd io.Reader, s *spec.Spec) (*run.Run, *provdata.Annotation, error) {
	d := decoderPool.Get().(*runDecoder)
	defer d.release()
	if err := d.read(rd); err != nil {
		return nil, nil, fmt.Errorf("xmlio: decode run: %w", err)
	}
	if err := d.parse(s); err != nil {
		return nil, nil, fmt.Errorf("xmlio: decode run: %w", err)
	}
	return d.build(s)
}

// runDecoder scans one run document held whole in buf. All scratch is
// reused across documents; nothing it returns aliases it.
type runDecoder struct {
	buf []byte
	pos int

	open      [][]byte // raw names of the open elements, innermost last
	closeNext bool     // the last start tag was self-closing

	// The start tag just scanned.
	local []byte
	attrs []attr
	vals  []byte // attribute values that needed entity or newline decoding

	// The document so far.
	origin     []dag.VertexID
	badID      int // first vertex whose id is not its position, or -1
	badIDVal   int64
	badMod     int // first vertex whose module is not in the spec, or -1
	badModStr  string
	edges      []int64 // from, to pairs in document order
	graphEdges []dag.Edge
	items      []itemRef
	itemText   []byte
	key        []byte
}

// attr is one attribute of the current start tag. val aliases buf, or
// vals[off:] when the value had to be decoded (off >= 0).
type attr struct {
	local []byte
	val   []byte
	off   int
}

// itemRef is one <data> element: the edge it sits on and its decoded
// text in itemText.
type itemRef struct {
	edge       int
	start, end int
}

func (d *runDecoder) release() {
	if cap(d.buf) > maxPooledBuf || cap(d.vals) > maxPooledBuf || cap(d.itemText) > maxPooledBuf {
		return
	}
	clear(d.open)
	clear(d.attrs)
	d.buf, d.open, d.attrs = d.buf[:0], d.open[:0], d.attrs[:0]
	d.local, d.badModStr = nil, ""
	decoderPool.Put(d)
}

// read slurps the whole document. Read errors are returned as they are,
// so callers can still classify them (http.MaxBytesError, transient
// storage errors).
func (d *runDecoder) read(rd io.Reader) error {
	b := d.buf[:0]
	if cap(b) == 0 {
		b = make([]byte, 0, 4096)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			d.buf = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// parse scans the document up to the end of its root element and
// records vertices, edges and data items. Semantic problems (ids,
// modules) are noted for build, which reports them in the same order
// the reflective decoder did; only syntax errors return here.
func (d *runDecoder) parse(s *spec.Spec) error {
	d.pos, d.closeNext = 0, false
	d.open = d.open[:0]
	d.origin, d.edges, d.items, d.itemText = d.origin[:0], d.edges[:0], d.items[:0], d.itemText[:0]
	d.badID, d.badMod = -1, -1
	for {
		tok, err := d.next(nil)
		if err != nil {
			return err
		}
		if tok == tokEOF {
			return io.EOF
		}
		if tok == tokStart {
			break
		}
	}
	if string(d.local) != "run" {
		return fmt.Errorf("expected element type <run> but have <%s>", d.local)
	}
	for {
		tok, err := d.next(nil)
		if err != nil {
			return err
		}
		if tok == tokEnd {
			return nil
		}
		switch string(d.local) {
		case "vertices":
			err = d.container("vertex", s)
		case "edges":
			err = d.container("edge", s)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// container decodes the children of <vertices> or <edges>: every child
// named child is a vertex or an edge, anything else is skipped.
func (d *runDecoder) container(child string, s *spec.Spec) error {
	for {
		tok, err := d.next(nil)
		if err != nil {
			return err
		}
		if tok == tokEnd {
			return nil
		}
		switch {
		case string(d.local) != child:
			err = d.skip()
		case child == "vertex":
			err = d.vertex(s)
		default:
			err = d.edge()
		}
		if err != nil {
			return err
		}
	}
}

func (d *runDecoder) vertex(s *spec.Spec) error {
	var id int64
	var module []byte
	for _, a := range d.attrs {
		switch string(a.local) {
		case "id":
			v, err := parseIntAttr(a.val)
			if err != nil {
				return err
			}
			id = v
		case "module":
			module = a.val
		}
	}
	i := len(d.origin)
	if id != int64(i) && d.badID < 0 {
		d.badID, d.badIDVal = i, id
	}
	o, ok := s.VertexOfBytes(module)
	if !ok && d.badMod < 0 {
		d.badMod, d.badModStr = i, string(module)
	}
	d.origin = append(d.origin, o)
	return d.skip()
}

func (d *runDecoder) edge() error {
	var from, to int64
	for _, a := range d.attrs {
		var dst *int64
		switch string(a.local) {
		case "from":
			dst = &from
		case "to":
			dst = &to
		default:
			continue
		}
		v, err := parseIntAttr(a.val)
		if err != nil {
			return err
		}
		*dst = v
	}
	e := len(d.edges) / 2
	d.edges = append(d.edges, from, to)
	for {
		tok, err := d.next(nil)
		if err != nil {
			return err
		}
		if tok == tokEnd {
			return nil
		}
		if string(d.local) != "data" {
			if err := d.skip(); err != nil {
				return err
			}
			continue
		}
		// A data item's name is all character data directly inside
		// <data>; text inside nested elements does not count.
		start := len(d.itemText)
		for {
			tok, err := d.next(&d.itemText)
			if err != nil {
				return err
			}
			if tok == tokEnd {
				break
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
		d.items = append(d.items, itemRef{edge: e, start: start, end: len(d.itemText)})
	}
}

// skip consumes the rest of the element whose start tag was just read.
func (d *runDecoder) skip() error {
	for depth := 1; depth > 0; {
		tok, err := d.next(nil)
		if err != nil {
			return err
		}
		if tok == tokStart {
			depth++
		} else {
			depth--
		}
	}
	return nil
}

// build turns the scanned document into a validated run, applying the
// checks in the reflective decoder's order.
func (d *runDecoder) build(s *spec.Spec) (*run.Run, *provdata.Annotation, error) {
	if d.badID >= 0 {
		return nil, nil, fmt.Errorf("xmlio: run vertex %d declared with id %d (ids must be dense and ordered)", d.badID, d.badIDVal)
	}
	if d.badMod >= 0 {
		return nil, nil, fmt.Errorf("run: vertex %d has module %q not present in the specification", d.badMod, d.badModStr)
	}
	n := int64(len(d.origin))
	d.graphEdges = d.graphEdges[:0]
	var ann *provdata.Annotation
	var itemOf map[string]int
	items := d.items
	for e := 0; e < len(d.edges)/2; e++ {
		from, to := d.edges[2*e], d.edges[2*e+1]
		if from < 0 || from >= n || to < 0 || to >= n {
			return nil, nil, fmt.Errorf("xmlio: run edge %d->%d out of range", from, to)
		}
		d.graphEdges = append(d.graphEdges, dag.Edge{Tail: dag.VertexID(from), Head: dag.VertexID(to)})
		for ; len(items) > 0 && items[0].edge == e; items = items[1:] {
			if ann == nil {
				ann = &provdata.Annotation{}
				itemOf = make(map[string]int)
			}
			// Items are keyed by (producer, name); the key's tail
			// doubles as the item's name, so one allocation serves both.
			d.key = append(d.key[:0], byte(from), byte(from>>8), byte(from>>16), byte(from>>24))
			d.key = append(d.key, d.itemText[items[0].start:items[0].end]...)
			i, ok := itemOf[string(d.key)]
			if !ok {
				key := string(d.key)
				i = len(ann.Items)
				itemOf[key] = i
				ann.Items = append(ann.Items, provdata.Item{
					ID:       provdata.ItemID(i),
					Name:     key[4:],
					Producer: dag.VertexID(from),
				})
			}
			ann.Items[i].Consumers = append(ann.Items[i].Consumers, dag.VertexID(to))
		}
	}
	g := dag.FromEdges(int(n), d.graphEdges)
	r := &run.Run{Spec: s, Graph: g, Origin: append([]dag.VertexID(nil), d.origin...)}
	if err := r.Validate(); err != nil {
		return nil, nil, err
	}
	if ann == nil {
		return r, nil, nil
	}
	ann.Run = r
	if err := ann.Validate(); err != nil {
		return nil, nil, err
	}
	return r, ann, nil
}

// parseIntAttr converts an integer attribute as encoding/xml does:
// empty means 0, otherwise strconv.ParseInt of the space-trimmed value.
// Plain digit strings short enough not to overflow skip the conversion.
func parseIntAttr(v []byte) (int64, error) {
	if len(v) == 0 {
		return 0, nil
	}
	var n int64
	for i, c := range v {
		if c < '0' || c > '9' || i == 18 {
			return strconv.ParseInt(strings.TrimSpace(string(v)), 10, 64)
		}
		n = n*10 + int64(c-'0')
	}
	return n, nil
}

// The tokenizer below follows encoding/xml's strict Decoder.Token on
// the bytes it accepts; the package documentation lists where it is
// stricter.

type token uint8

const (
	tokEOF token = iota
	tokStart
	tokEnd
)

func (d *runDecoder) syntaxError(format string, args ...any) error {
	line := 1 + bytes.Count(d.buf[:min(d.pos, len(d.buf))], []byte{'\n'})
	return fmt.Errorf("syntax error on line %d: %s", line, fmt.Sprintf(format, args...))
}

// peek returns the byte at d.pos; running out of input there is an
// error, as everywhere inside markup.
func (d *runDecoder) peek() (byte, error) {
	if d.pos >= len(d.buf) {
		return 0, d.syntaxError("unexpected EOF")
	}
	return d.buf[d.pos], nil
}

// next advances past character data, comments, processing instructions
// and directives to the next start or end tag, checking that end tags
// match. Character data (CDATA included) is appended to *text when text
// is non-nil, and only validated otherwise. At a start tag, d.local and
// d.attrs describe it; a self-closing tag yields its end next.
func (d *runDecoder) next(text *[]byte) (token, error) {
	if d.closeNext {
		d.closeNext = false
		d.open = d.open[:len(d.open)-1]
		return tokEnd, nil
	}
	for {
		if d.pos >= len(d.buf) {
			if len(d.open) > 0 {
				return 0, d.syntaxError("unexpected EOF")
			}
			return tokEOF, nil
		}
		if d.buf[d.pos] != '<' {
			if err := d.charData(text); err != nil {
				return 0, err
			}
			continue
		}
		d.pos++
		b, err := d.peek()
		if err != nil {
			return 0, err
		}
		switch b {
		case '/':
			d.pos++
			return d.endTag()
		case '?':
			d.pos++
			err = d.procInst()
		case '!':
			d.pos++
			err = d.bang(text)
		default:
			return d.startTag()
		}
		if err != nil {
			return 0, err
		}
	}
}

func (d *runDecoder) endTag() (token, error) {
	name, local, err := d.nsname()
	if err != nil {
		return 0, err
	}
	if name == nil {
		return 0, d.syntaxError("expected element name after </")
	}
	d.space()
	if b, err := d.peek(); err != nil {
		return 0, err
	} else if b != '>' {
		return 0, d.syntaxError("invalid characters between </%s and >", local)
	}
	d.pos++
	if len(d.open) == 0 {
		return 0, d.syntaxError("unexpected end element </%s>", local)
	}
	if top := d.open[len(d.open)-1]; !bytes.Equal(top, name) {
		return 0, d.syntaxError("element <%s> closed by </%s>", top, name)
	}
	d.open = d.open[:len(d.open)-1]
	return tokEnd, nil
}

func (d *runDecoder) startTag() (token, error) {
	name, local, err := d.nsname()
	if err != nil {
		return 0, err
	}
	if name == nil {
		return 0, d.syntaxError("expected element name after <")
	}
	d.local = local
	d.attrs, d.vals = d.attrs[:0], d.vals[:0]
	decoded := false
	for {
		d.space()
		b, err := d.peek()
		if err != nil {
			return 0, err
		}
		if b == '/' {
			d.pos++
			if b, err := d.peek(); err != nil {
				return 0, err
			} else if b != '>' {
				return 0, d.syntaxError("expected /> in element")
			}
			d.pos++
			d.closeNext = true
			break
		}
		if b == '>' {
			d.pos++
			break
		}
		aname, alocal, err := d.nsname()
		if err != nil {
			return 0, err
		}
		if aname == nil {
			return 0, d.syntaxError("expected attribute name in element")
		}
		d.space()
		if b, err := d.peek(); err != nil {
			return 0, err
		} else if b != '=' {
			return 0, d.syntaxError("attribute name without = in element")
		}
		d.pos++
		d.space()
		q, err := d.peek()
		if err != nil {
			return 0, err
		}
		if q != '"' && q != '\'' {
			return 0, d.syntaxError("unquoted or missing attribute value in element")
		}
		d.pos++
		start := d.pos
		plain, err := d.scanText(q)
		if err != nil {
			return 0, err
		}
		raw := d.buf[start : d.pos-1]
		if plain {
			d.attrs = append(d.attrs, attr{local: alocal, val: raw, off: -1})
			continue
		}
		off := len(d.vals)
		d.vals = appendDecoded(d.vals, raw, true)
		d.attrs = append(d.attrs, attr{local: alocal, val: d.vals[off:], off: off})
		decoded = true
	}
	if decoded {
		// Appending may have moved vals while the tag was scanned.
		for i := range d.attrs {
			if a := &d.attrs[i]; a.off >= 0 {
				a.val = d.vals[a.off : a.off+len(a.val)]
			}
		}
	}
	d.open = append(d.open, name)
	return tokStart, nil
}

// charData consumes character data up to the next '<' or the end of
// input.
func (d *runDecoder) charData(text *[]byte) error {
	start := d.pos
	if _, err := d.scanText(0); err != nil {
		return err
	}
	if text != nil {
		*text = appendDecoded(*text, d.buf[start:d.pos], true)
	}
	return nil
}

// scanText validates text from d.pos: an attribute value through its
// closing quote when quote != 0, else character data up to the next '<'
// or the end of input. Entities must be one of the five named ones or a
// character reference, "]]>" may not occur outside attribute values,
// and every character must be UTF-8 in the XML character range. plain
// reports that the text has no entity and no carriage return, so it
// decodes to itself.
func (d *runDecoder) scanText(quote byte) (plain bool, err error) {
	buf := d.buf
	plain = true
	i := d.pos
	for i < len(buf) {
		c := buf[i]
		if plainText[c] {
			i++
			continue
		}
		switch {
		case c == quote && quote != 0:
			d.pos = i + 1
			return plain, nil
		case c == '<':
			if quote != 0 {
				d.pos = i
				return false, d.syntaxError("unescaped < inside quoted string")
			}
			d.pos = i
			return plain, nil
		case c == '&':
			r, n, ok := entity(buf[i:])
			if !ok {
				d.pos = i
				if n < 0 {
					return false, d.syntaxError("unexpected EOF")
				}
				return false, d.syntaxError("invalid character entity %s", buf[i:i+n])
			}
			if !isInCharacterRange(r) {
				d.pos = i
				return false, d.syntaxError("illegal character code %U", r)
			}
			plain = false
			i += n
		case c == ']' && quote == 0:
			if i+2 < len(buf) && buf[i+1] == ']' && buf[i+2] == '>' {
				d.pos = i
				return false, d.syntaxError("unescaped ]]> not in CDATA section")
			}
			i++
		case c == '\r':
			plain = false
			i++
		case c >= utf8.RuneSelf:
			n, err := d.validRune(i)
			if err != nil {
				return false, err
			}
			i += n
		case c < 0x20:
			d.pos = i
			return false, d.syntaxError("illegal character code %U", rune(c))
		default: // a quote other than the closing one, or ']' in a value
			i++
		}
	}
	d.pos = i
	if quote != 0 {
		return false, d.syntaxError("unexpected EOF")
	}
	return plain, nil
}

// validRune checks the multi-byte UTF-8 character at buf[i].
func (d *runDecoder) validRune(i int) (int, error) {
	r, n := utf8.DecodeRune(d.buf[i:])
	if r == utf8.RuneError && n == 1 {
		d.pos = i
		return 0, d.syntaxError("invalid UTF-8")
	}
	if !isInCharacterRange(r) {
		d.pos = i
		return 0, d.syntaxError("illegal character code %U", r)
	}
	return n, nil
}

// entity decodes the entity or character reference at the start of b
// (b[0] == '&'), returning the character and the bytes consumed. ok is
// false for anything encoding/xml rejects; n < 0 then means the input
// ended inside the reference.
func entity(b []byte) (r rune, n int, ok bool) {
	if len(b) < 2 {
		return 0, -1, false
	}
	if b[1] != '#' {
		for _, e := range namedEntities {
			if bytes.HasPrefix(b[1:], e.name) {
				return e.r, 1 + len(e.name), true
			}
		}
		end := bytes.IndexByte(b, ';')
		if end < 0 {
			return 0, min(len(b), 16), false
		}
		return 0, end + 1, false
	}
	i, base := 2, rune(10)
	if i < len(b) && b[i] == 'x' {
		i, base = 3, 16
	}
	start := i
	for ; i < len(b); i++ {
		var v rune
		switch c := b[i]; {
		case '0' <= c && c <= '9':
			v = rune(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			v = rune(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			v = rune(c-'A') + 10
		default:
			v = -1
		}
		if v < 0 {
			break
		}
		if r <= utf8.MaxRune {
			r = r*base + v
		}
	}
	if i >= len(b) {
		return 0, -1, false
	}
	if b[i] != ';' || i == start || r > utf8.MaxRune {
		return 0, i + 1, false
	}
	if 0xD800 <= r && r <= 0xDFFF {
		r = utf8.RuneError // what string(rune(r)) yields for a surrogate
	}
	return r, i + 1, true
}

var namedEntities = []struct {
	name []byte
	r    rune
}{
	{[]byte("lt;"), '<'},
	{[]byte("gt;"), '>'},
	{[]byte("amp;"), '&'},
	{[]byte("apos;"), '\''},
	{[]byte("quot;"), '"'},
}

// appendDecoded appends validated text with its entities (when
// entities is set) replaced and "\r\n" and "\r" turned into "\n".
func appendDecoded(dst, raw []byte, entities bool) []byte {
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '&' && entities:
			r, n, _ := entity(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		case c == '\r':
			dst = append(dst, '\n')
			i++
			if i < len(raw) && raw[i] == '\n' {
				i++
			}
		default:
			j := i + 1
			for j < len(raw) && raw[j] != '\r' && (raw[j] != '&' || !entities) {
				j++
			}
			dst = append(dst, raw[i:j]...)
			i = j
		}
	}
	return dst
}

func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// bang handles what follows "<!": a comment, a CDATA section or a
// directive such as <!DOCTYPE ...>.
func (d *runDecoder) bang(text *[]byte) error {
	b, err := d.peek()
	if err != nil {
		return err
	}
	switch b {
	case '-':
		return d.comment()
	case '[':
		return d.cdata(text)
	}
	return d.directive()
}

// comment skips a comment after "<!"; the first "--" must close it.
func (d *runDecoder) comment() error {
	d.pos++
	if b, err := d.peek(); err != nil {
		return err
	} else if b != '-' {
		return d.syntaxError("invalid sequence <!- not part of <!--")
	}
	d.pos++
	k := bytes.Index(d.buf[d.pos:], []byte("--"))
	if k < 0 {
		d.pos = len(d.buf)
		return d.syntaxError("unexpected EOF")
	}
	d.pos += k + 2
	if b, err := d.peek(); err != nil {
		return err
	} else if b != '>' {
		return d.syntaxError(`invalid sequence "--" not allowed in comments`)
	}
	d.pos++
	return nil
}

// cdata consumes a CDATA section after "<!": its text is taken as it
// is, apart from line ends, and must consist of XML characters.
func (d *runDecoder) cdata(text *[]byte) error {
	const open = "[CDATA["
	if rest := d.buf[d.pos:]; !bytes.HasPrefix(rest, []byte(open)) {
		if len(rest) < len(open) && bytes.HasPrefix([]byte(open), rest) {
			return d.syntaxError("unexpected EOF")
		}
		return d.syntaxError("invalid <![ sequence")
	}
	d.pos += len(open)
	end := bytes.Index(d.buf[d.pos:], []byte("]]>"))
	if end < 0 {
		d.pos = len(d.buf)
		return d.syntaxError("unexpected EOF in CDATA section")
	}
	end += d.pos
	for i := d.pos; i < end; {
		switch c := d.buf[i]; {
		case c >= utf8.RuneSelf:
			n, err := d.validRune(i)
			if err != nil {
				return err
			}
			i += n
		case c < 0x20 && c != '\t' && c != '\n' && c != '\r':
			d.pos = i
			return d.syntaxError("illegal character code %U", rune(c))
		default:
			i++
		}
	}
	if text != nil {
		*text = appendDecoded(*text, d.buf[d.pos:end], false)
	}
	d.pos = end + len("]]>")
	return nil
}

// directive skips a <!...> declaration: up to the first '>' outside
// quotes and outside nested <...> pairs; comments inside are skipped.
// The byte right after "<!" is taken as it is, as encoding/xml does.
func (d *runDecoder) directive() error {
	buf := d.buf
	i := d.pos + 1
	var inquote byte
	depth := 0
	for {
		if i >= len(buf) {
			d.pos = i
			return d.syntaxError("unexpected EOF")
		}
		b := buf[i]
		i++
		if inquote == 0 && b == '>' && depth == 0 {
			d.pos = i
			return nil
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			for _, want := range []byte("!--") {
				if i >= len(buf) {
					d.pos = i
					return d.syntaxError("unexpected EOF")
				}
				b = buf[i]
				i++
				if b != want {
					depth++
					goto handle
				}
			}
			k := bytes.Index(buf[i:], []byte("-->"))
			if k < 0 {
				d.pos = len(buf)
				return d.syntaxError("unexpected EOF")
			}
			i += k + 3
		}
	}
}

// procInst skips a processing instruction after "<?". An XML
// declaration must declare version 1.0 (or none) and UTF-8 (or none).
func (d *runDecoder) procInst() error {
	target, ok, _ := d.scanName()
	if len(target) == 0 {
		if d.pos >= len(d.buf) {
			return d.syntaxError("unexpected EOF")
		}
		return d.syntaxError("expected target name after <?")
	}
	if !ok {
		return d.syntaxError("invalid XML name: %s", target)
	}
	d.space()
	k := bytes.Index(d.buf[d.pos:], []byte("?>"))
	if k < 0 {
		d.pos = len(d.buf)
		return d.syntaxError("unexpected EOF")
	}
	content := d.buf[d.pos : d.pos+k]
	d.pos += k + 2
	if string(target) != "xml" {
		return nil
	}
	if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
		return fmt.Errorf("unsupported XML version %q; only 1.0 is supported", ver)
	}
	if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("unsupported encoding %q; only UTF-8 is supported", enc)
	}
	return nil
}

// procInstParam extracts param="..." (or '...') from a processing
// instruction's content with encoding/xml's rules: the first occurrence
// of "param=" followed by a quote, up to the next matching quote, or ""
// if there is none.
func procInstParam(param string, content []byte) string {
	s := string(content)
	param += "="
	for i := 0; i < len(s); {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || k+len(param) >= len(sub) {
			return ""
		}
		i += k + len(param) + 1
		if sep := sub[k+len(param)]; sep == '\'' || sep == '"' {
			j := strings.IndexByte(s[i:], sep)
			if j < 0 {
				return ""
			}
			return s[i : i+j]
		}
	}
	return ""
}

// space skips XML white space.
func (d *runDecoder) space() {
	buf, i := d.buf, d.pos
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\n' || buf[i] == '\t' || buf[i] == '\r') {
		i++
	}
	d.pos = i
}

// nameClass classifies bytes for name scanning as encoding/xml reads
// names: they run to the first ASCII byte that is not a name byte, and
// take in every byte of a multi-byte character (which this decoder then
// rejects).
const (
	nameEnd = iota
	nameChar
	nameColon
	nameNonASCII
)

var nameClass = func() (t [256]uint8) {
	for c := 0; c < 256; c++ {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = nameNonASCII
		case c == ':':
			t[c] = nameColon
		case 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_' || c == '.' || c == '-':
			t[c] = nameChar
		}
	}
	return t
}()

// plainText marks the bytes text scanning passes over without a second
// look: printable ASCII other than quotes, '&', '<' and ']', plus tab
// and newline.
var plainText = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"'&<]` {
		t[c] = false
	}
	t['\t'], t['\n'] = true, true
	return t
}()

// scanName advances over a name and reports whether it is an ASCII XML
// name (non-ASCII names are a documented divergence) and where its
// colon is: -1 for none, -2 for more than one.
func (d *runDecoder) scanName() (name []byte, ok bool, colon int) {
	buf := d.buf
	start, i := d.pos, d.pos
	ok, colon = true, -1
	for {
		for i < len(buf) && nameClass[buf[i]] == nameChar {
			i++
		}
		if i >= len(buf) {
			break
		}
		if c := nameClass[buf[i]]; c == nameColon {
			if colon != -1 {
				colon = -2
			} else {
				colon = i - start
			}
		} else if c == nameNonASCII {
			ok = false
		} else {
			break
		}
		i++
	}
	d.pos = i
	name = buf[start:i]
	if len(name) > 0 {
		c := name[0]
		ok = ok && ('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':')
	}
	return name, ok, colon
}

// nsname scans an element or attribute name: name is nil when there is
// none at d.pos, local is the part after a namespace prefix. A name
// with more than one colon counts as none, as in encoding/xml.
func (d *runDecoder) nsname() (name, local []byte, err error) {
	name, ok, colon := d.scanName()
	if d.pos >= len(d.buf) {
		return nil, nil, d.syntaxError("unexpected EOF")
	}
	if len(name) == 0 {
		return nil, nil, nil
	}
	if !ok {
		return nil, nil, d.syntaxError("invalid XML name: %s", name)
	}
	switch {
	case colon == -2:
		return nil, nil, nil
	case colon > 0 && colon < len(name)-1:
		return name, name[colon+1:], nil
	}
	return name, name, nil
}
