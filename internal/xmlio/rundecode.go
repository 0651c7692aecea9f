package xmlio

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"slices"
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
// oversized document does not stay pinned in the pool. 4 MiB holds the
// document of a run of about 50,000 vertices.
const maxPooledBuf = 4 << 20

// maxPooledVertices and maxPooledEdgeEnds bound the vertex and edge
// scratch a pooled decoder keeps. parse sizes a fresh decoder's scratch
// in one step: a canonical element takes about 40 bytes, and a run has
// about as many edges as vertices, so n bytes of document get n/64
// origins and n/32 edge ends. It reads at most maxPooledBuf bytes, so a
// stored document that is mostly data items does not size that scratch
// by its data; release drops a decoder whose scratch outgrew the bound.
const (
	maxPooledVertices = maxPooledBuf / 64
	maxPooledEdgeEnds = maxPooledBuf / 32
)

var decoderPool = sync.Pool{New: func() any { return new(runDecoder) }}

// DecodeRun reads a run (and its data annotation, if any items are
// present) against the given specification and validates it. See the
// package documentation for the accepted grammar.
func DecodeRun(rd io.Reader, s *spec.Spec) (*run.Run, *provdata.Annotation, error) {
	doc, err := ReadRunDocument(rd)
	if err != nil {
		return nil, nil, err
	}
	defer doc.Release()
	return doc.Decode(s)
}

// Document is a run document read whole into a pooled decoder's buffer
// by ReadRunDocument. Bytes and Decode work on the bytes where they
// were read; Release hands the decoder back to the pool, and with it
// the bytes. The zero Document holds nothing.
type Document struct{ d *runDecoder }

// ReadRunDocument reads a whole run document of unknown length, such as
// a PUT body, into a pooled decoder. Read errors keep their identity
// under DecodeRun's prefix. A stored document is not read here:
// store.OpenRun borrows it or reads it at its size.
func ReadRunDocument(rd io.Reader) (Document, error) {
	d := decoderPool.Get().(*runDecoder)
	if err := d.read(rd); err != nil {
		d.release()
		return Document{}, fmt.Errorf("xmlio: decode run: %w", err)
	}
	return Document{d}, nil
}

// Bytes returns the document as read. The slice is the decoder's: it
// stays valid and unchanged until Release, and must not be modified.
func (doc Document) Bytes() []byte { return doc.d.buf }

// Decode is DecodeRun over the document, scanned where it lies in the
// decoder's buffer. Nothing it returns refers to that buffer.
func (doc Document) Decode(s *spec.Spec) (*run.Run, *provdata.Annotation, error) {
	return doc.d.decode(s)
}

// Release returns the decoder to the pool. The Document and every
// slice Bytes returned must not be used afterwards.
func (doc Document) Release() {
	if doc.d != nil {
		doc.d.release()
	}
}

// DecodeRunBytes is DecodeRun over a document already held in memory.
// It neither modifies doc nor keeps a reference to it.
func DecodeRunBytes(doc []byte, s *spec.Spec) (*run.Run, *provdata.Annotation, error) {
	d := decoderPool.Get().(*runDecoder)
	own := d.buf
	d.buf = doc
	defer func() {
		d.buf = own
		d.release()
	}()
	return d.decode(s)
}

// decode parses and builds the document held in buf.
func (d *runDecoder) decode(s *spec.Spec) (*run.Run, *provdata.Annotation, error) {
	if err := d.parse(s); err != nil {
		return nil, nil, fmt.Errorf("xmlio: decode run: %w", err)
	}
	return d.build(s)
}

// runDecoder scans one run document held whole in buf. All scratch is
// reused across documents; nothing it returns aliases it. The scanner
// keeps names and values as offsets, not slices, so its scratch holds
// no pointers and filling it costs no write barriers.
type runDecoder struct {
	buf []byte
	pos int

	open      []span // raw names of the open elements, innermost last
	closeNext bool   // the last start tag was self-closing

	// The start tag just scanned.
	local span
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

// span is the bytes buf[start:end] of the document being scanned.
type span struct{ start, end int }

// attr is one attribute of the current start tag: its local name in
// buf, and its value in buf, or in vals when it had to be decoded, which
// val marks with a negative start (see value). Two spans and nothing
// else keep an attr small enough to be built in registers.
type attr struct{ local, val span }

// name returns the bytes s covers in the document.
func (d *runDecoder) name(s span) []byte { return d.buf[s.start:s.end] }

// value returns the attribute's decoded value.
func (d *runDecoder) value(a attr) []byte {
	if a.val.start < 0 {
		return d.vals[^a.val.start:a.val.end]
	}
	return d.buf[a.val.start:a.val.end]
}

// itemRef is one <data> element: the edge it sits on and its decoded
// text in itemText.
type itemRef struct {
	edge       int
	start, end int
}

func (d *runDecoder) release() {
	if cap(d.buf) > maxPooledBuf || cap(d.vals) > maxPooledBuf || cap(d.itemText) > maxPooledBuf ||
		cap(d.origin) > maxPooledVertices || cap(d.edges) > maxPooledEdgeEnds || cap(d.graphEdges) > maxPooledEdgeEnds/2 {
		return
	}
	d.buf, d.badModStr = d.buf[:0], ""
	decoderPool.Put(d)
}

// read slurps the whole document. Read errors are returned as they are,
// so callers can still classify them (http.MaxBytesError, transient
// storage errors). A reader that knows how much it holds (bytes.Reader,
// strings.Reader, bytes.Buffer) is read into a buffer grown once to
// that size plus the byte that lets the last Read report EOF.
func (d *runDecoder) read(rd io.Reader) error {
	b := d.buf[:0]
	want := 4096
	if l, ok := rd.(interface{ Len() int }); ok {
		want = l.Len() + 1
	}
	if cap(b) < want {
		b = make([]byte, 0, want)
	}
	for {
		if len(b) == cap(b) {
			b = slices.Grow(b, len(b)) // doubling, however large b is
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
	// Size the vertex and edge scratch once (see maxPooledVertices),
	// so a fresh decoder grows each in one step rather than by doubling.
	n := min(len(d.buf), maxPooledBuf)
	if est := n / 64; cap(d.origin) < est {
		d.origin = make([]dag.VertexID, 0, est)
	}
	if est := n / 32; cap(d.edges) < est {
		d.edges = make([]int64, 0, est)
	}
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
	if local := d.name(d.local); string(local) != "run" {
		return fmt.Errorf("expected element type <run> but have <%s>", local)
	}
	for {
		tok, err := d.next(nil)
		if err != nil {
			return err
		}
		if tok == tokEnd {
			return nil
		}
		switch string(d.name(d.local)) {
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
// named child is a vertex or an edge, anything else is skipped. Each
// child first goes through the one-step match of the layout AppendRun
// writes (canonicalVertex, canonicalEdge); whatever that does not
// match, the tokenizer reads.
func (d *runDecoder) container(child string, s *spec.Spec) error {
	for {
		if !d.closeNext {
			if child == "vertex" {
				for d.canonicalVertex(s) {
				}
			} else {
				for d.canonicalEdge() {
				}
			}
		}
		tok, err := d.next(nil)
		if err != nil {
			return err
		}
		if tok == tokEnd {
			return nil
		}
		switch {
		case string(d.name(d.local)) != child:
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
		switch string(d.name(a.local)) {
		case "id":
			v, err := parseIntAttr(d.value(a))
			if err != nil {
				return err
			}
			id = v
		case "module":
			module = d.value(a)
		}
	}
	d.addVertex(id, module, s)
	return d.skip()
}

// addVertex records the next vertex, noting for build the first id out
// of place and the first module the specification does not have.
func (d *runDecoder) addVertex(id int64, module []byte, s *spec.Spec) {
	i := len(d.origin)
	if id != int64(i) && d.badID < 0 {
		d.badID, d.badIDVal = i, id
	}
	o, ok := s.VertexOfBytes(module)
	if !ok && d.badMod < 0 {
		d.badMod, d.badModStr = i, string(module)
	}
	d.origin = append(d.origin, o)
}

// canonicalVertex matches, at d.pos, one <vertex> element as AppendRun
// writes it: indentation of spaces and newlines, then
// <vertex id="DIGITS" module="TEXT"> closed by </vertex>, or the same
// start tag self-closed by "/>". DIGITS is 1 to 18 ASCII digits and
// TEXT a run of plainText bytes, so both read exactly as the tokenizer
// and parseIntAttr read them. On a match it records the vertex as
// vertex does and moves past it; otherwise it consumes nothing.
func (d *runDecoder) canonicalVertex(s *spec.Spec) bool {
	buf := d.buf
	i := skipIndent(buf, d.pos)
	if !hasAt(buf, i, `<vertex id="`) {
		return false
	}
	id, i := digitsAt(buf, i+len(`<vertex id="`))
	if i < 0 || !hasAt(buf, i, `" module="`) {
		return false
	}
	start := i + len(`" module="`)
	if i = scanClass(buf, start, &plainText); i >= len(buf) || buf[i] != '"' {
		return false
	}
	end := closeAt(buf, i+1, `></vertex>`)
	if end < 0 {
		return false
	}
	d.addVertex(id, buf[start:i], s)
	d.pos = end
	return true
}

// canonicalEdge is canonicalVertex for <edge from="DIGITS"
// to="DIGITS">: an edge with no <data> child, as AppendRun writes it.
func (d *runDecoder) canonicalEdge() bool {
	buf := d.buf
	i := skipIndent(buf, d.pos)
	if !hasAt(buf, i, `<edge from="`) {
		return false
	}
	from, i := digitsAt(buf, i+len(`<edge from="`))
	if i < 0 || !hasAt(buf, i, `" to="`) {
		return false
	}
	to, i := digitsAt(buf, i+len(`" to="`))
	if i < 0 || !hasAt(buf, i, `"`) {
		return false
	}
	end := closeAt(buf, i+1, `></edge>`)
	if end < 0 {
		return false
	}
	d.edges = append(d.edges, from, to)
	d.pos = end
	return true
}

// skipIndent returns the index of the first byte at or after i that is
// neither a space nor a newline.
func skipIndent(buf []byte, i int) int {
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\n') {
		i++
	}
	return i
}

// hasAt reports whether buf holds lit at i.
func hasAt(buf []byte, i int, lit string) bool {
	return i+len(lit) <= len(buf) && string(buf[i:i+len(lit)]) == lit
}

// closeAt returns the end of a start tag's closing at i, either end
// (">" and the end tag) or "/>", or -1 for anything else.
func closeAt(buf []byte, i int, end string) int {
	switch {
	case hasAt(buf, i, end):
		return i + len(end)
	case hasAt(buf, i, "/>"):
		return i + 2
	}
	return -1
}

// digitsAt parses the 1 to 18 ASCII digits at i. It returns their value
// and the index after them, or -1 when there are none or more than 18.
func digitsAt(buf []byte, i int) (int64, int) {
	var n int64
	start := i
	for ; i < len(buf) && '0' <= buf[i] && buf[i] <= '9'; i++ {
		if i-start == 18 {
			return 0, -1
		}
		n = n*10 + int64(buf[i]-'0')
	}
	if i == start {
		return 0, -1
	}
	return n, i
}

func (d *runDecoder) edge() error {
	var from, to int64
	for _, a := range d.attrs {
		var dst *int64
		switch string(d.name(a.local)) {
		case "from":
			dst = &from
		case "to":
			dst = &to
		default:
			continue
		}
		v, err := parseIntAttr(d.value(a))
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
		if string(d.name(d.local)) != "data" {
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
	if m := len(d.edges) / 2; cap(d.graphEdges) < m {
		d.graphEdges = make([]dag.Edge, 0, m)
	}
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
	buf := d.buf
	for {
		// Indentation, then printable ASCII text, decodes to itself and
		// is passed over here; anything else takes charData's full check.
		i := skipIndent(buf, d.pos)
		if i < len(buf) && buf[i] != '<' {
			i = scanClass(buf, i, &plainText)
		}
		if i < len(buf) && buf[i] != '<' {
			if err := d.charData(text); err != nil {
				return 0, err
			}
			continue
		}
		if text != nil {
			*text = append(*text, buf[d.pos:i]...)
		}
		if i >= len(buf) {
			d.pos = i
			if len(d.open) > 0 {
				return 0, d.syntaxError("unexpected EOF")
			}
			return tokEOF, nil
		}
		if i+1 == len(buf) {
			return 0, d.errorAt(i+1, "unexpected EOF")
		}
		var err error
		switch buf[i+1] {
		case '/':
			d.pos = i + 2
			return d.endTag()
		case '?':
			d.pos = i + 2
			err = d.procInst()
		case '!':
			d.pos = i + 2
			err = d.bang(text)
		default:
			d.pos = i + 1
			return d.startTag()
		}
		if err != nil {
			return 0, err
		}
	}
}

// endTag reads an end tag after "</". The common case — the open
// element's own name, white space, '>' — is matched against the name
// as the start tag spelled it; anything else is scanned as a name.
func (d *runDecoder) endTag() (token, error) {
	buf, i := d.buf, d.pos
	if n := len(d.open); n > 0 {
		top := d.name(d.open[n-1])
		if j := i + len(top); j < len(buf) && string(buf[i:j]) == string(top) && nameClass[buf[j]] == nameEnd {
			if j = skipSpace(buf, j); j < len(buf) && buf[j] == '>' {
				d.pos = j + 1
				d.open = d.open[:n-1]
				return tokEnd, nil
			}
		}
	}
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
	if top := d.name(d.open[len(d.open)-1]); !bytes.Equal(top, name) {
		return 0, d.syntaxError("element <%s> closed by </%s>", top, name)
	}
	d.open = d.open[:len(d.open)-1]
	return tokEnd, nil
}

// startTag reads a start tag after '<' with a local index into buf:
// the element name, then each attribute's name, '=' and quoted value.
// Errors are reported from the byte encoding/xml reported them at.
func (d *runDecoder) startTag() (token, error) {
	buf, i := d.buf, d.pos
	end, local, err := d.nameAt(i)
	if err != nil {
		return 0, err
	}
	if local < 0 {
		return 0, d.syntaxError("expected element name after <")
	}
	name := span{i, end}
	d.local = span{local, end}
	attrs := d.attrs[:0]
	d.vals = d.vals[:0]
	for i = end; ; {
		if i = skipSpace(buf, i); i >= len(buf) {
			return 0, d.errorAt(i, "unexpected EOF")
		}
		if c := buf[i]; c == '>' || c == '/' {
			if c == '/' {
				if i++; i >= len(buf) {
					return 0, d.errorAt(i, "unexpected EOF")
				}
				if buf[i] != '>' {
					return 0, d.errorAt(i, "expected /> in element")
				}
				d.closeNext = true
			}
			d.pos = i + 1
			d.attrs = attrs
			d.open = append(d.open, name)
			return tokStart, nil
		}
		aend, alocal, err := d.nameAt(i)
		if err != nil {
			return 0, err
		}
		if alocal < 0 {
			return 0, d.syntaxError("expected attribute name in element")
		}
		if i = skipSpace(buf, aend); i >= len(buf) {
			return 0, d.errorAt(i, "unexpected EOF")
		}
		if buf[i] != '=' {
			return 0, d.errorAt(i, "attribute name without = in element")
		}
		if i = skipSpace(buf, i+1); i >= len(buf) {
			return 0, d.errorAt(i, "unexpected EOF")
		}
		q := buf[i]
		if q != '"' && q != '\'' {
			return 0, d.errorAt(i, "unquoted or missing attribute value in element")
		}
		i++
		start := i
		if i = scanClass(buf, i, &plainText); i < len(buf) && buf[i] == q {
			attrs = append(attrs, attr{local: span{alocal, aend}, val: span{start, i}})
			i++
			continue
		}
		// Entities, carriage returns, the other quote or non-ASCII.
		d.pos = start
		plain, err := d.scanText(q)
		if err != nil {
			return 0, err
		}
		i = d.pos
		if plain {
			attrs = append(attrs, attr{local: span{alocal, aend}, val: span{start, i - 1}})
			continue
		}
		off := len(d.vals)
		d.vals = appendDecoded(d.vals, buf[start:i-1], true)
		attrs = append(attrs, attr{local: span{alocal, aend}, val: span{^off, len(d.vals)}})
	}
}

// errorAt is a syntax error reported at buf[i].
func (d *runDecoder) errorAt(i int, msg string) error {
	d.pos = i
	return d.syntaxError("%s", msg)
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
	for {
		if i = scanClass(buf, i, &plainText); i >= len(buf) {
			break
		}
		switch c := buf[i]; {
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
func (d *runDecoder) space() { d.pos = skipSpace(d.buf, d.pos) }

// skipSpace returns the index of the first byte at or after i that is
// not XML white space.
func skipSpace(buf []byte, i int) int {
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\n' || buf[i] == '\t' || buf[i] == '\r') {
		i++
	}
	return i
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

// plainText marks (with 1) the bytes text scanning passes over without
// a second look: printable ASCII other than quotes, '&', '<' and ']',
// plus tab and newline.
var plainText = func() (t [256]uint8) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = 1
	}
	for _, c := range `"'&<]` {
		t[c] = 0
	}
	t['\t'], t['\n'] = 1, 1
	return t
}()

// nameChars marks (with 1) the bytes of nameClass nameChar.
var nameChars = func() (t [256]uint8) {
	for c := range t {
		if nameClass[c] == nameChar {
			t[c] = 1
		}
	}
	return t
}()

// scanClass returns the index of the first byte at or after i that
// class does not mark. It classifies eight bytes a step into a bit mask,
// so a name or value shorter than eight bytes ends without a loop exit
// the branch predictor has to guess.
func scanClass(buf []byte, i int, class *[256]uint8) int {
	for ; i+8 <= len(buf); i += 8 {
		b := buf[i : i+8 : i+8]
		m := uint(class[b[0]]) | uint(class[b[1]])<<1 | uint(class[b[2]])<<2 | uint(class[b[3]])<<3 |
			uint(class[b[4]])<<4 | uint(class[b[5]])<<5 | uint(class[b[6]])<<6 | uint(class[b[7]])<<7
		if m != 0xff {
			return i + bits.TrailingZeros(^m)
		}
	}
	for i < len(buf) && class[buf[i]] != 0 {
		i++
	}
	return i
}

// scanName advances over a name and reports whether it is an ASCII XML
// name (non-ASCII names are a documented divergence) and where its
// colon is: -1 for none, -2 for more than one.
func (d *runDecoder) scanName() (name []byte, ok bool, colon int) {
	buf := d.buf
	start, i := d.pos, d.pos
	ok, colon = true, -1
	for {
		if i = scanClass(buf, i, &nameChars); i >= len(buf) {
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

// nameAt is nsname at buf[i] returning offsets: the name's end and the
// start of its local part, or a negative local when there is no name. A
// name of ASCII letters, digits and "_.-" that starts with a letter or
// '_', the common case, is scanned here; any other goes through nsname,
// which leaves d.pos where an error about it is reported.
func (d *runDecoder) nameAt(i int) (end, local int, err error) {
	buf := d.buf
	if j := scanClass(buf, i, &nameChars); j > i && j < len(buf) && nameClass[buf[j]] == nameEnd {
		if c := buf[i]; 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' {
			return j, i, nil
		}
	}
	d.pos = i
	name, l, err := d.nsname()
	if err != nil || name == nil {
		return d.pos, -1, err
	}
	return d.pos, d.pos - len(l), nil
}
