package xmlio

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math/bits"
	"slices"
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
// scratch a pooled decoder keeps. decode sizes a fresh decoder's scratch
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

// Decode is DecodeRun over the document, matched where it lies in the
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

// decode matches and builds the document held in buf.
func (d *runDecoder) decode(s *spec.Spec) (*run.Run, *provdata.Annotation, error) {
	d.reset()
	// Size the vertex and edge scratch once (see maxPooledVertices),
	// so a fresh decoder grows each in one step rather than by doubling.
	n := min(len(d.buf), maxPooledBuf)
	if est := n / 64; cap(d.origin) < est {
		d.origin = make([]dag.VertexID, 0, est)
	}
	if est := n / 32; cap(d.edges) < est {
		d.edges = make([]int64, 0, est)
	}
	if !d.matchRun(s) {
		d.reset()
		if err := d.decodeXML(s); err != nil {
			return nil, nil, fmt.Errorf("xmlio: decode run: %w", err)
		}
	}
	return d.build(s)
}

// runDecoder decodes one run document held whole in buf. All scratch is
// reused across documents; nothing it returns aliases it.
type runDecoder struct {
	buf []byte

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

// itemRef is one <data> element: the edge it sits on and its text in
// itemText.
type itemRef struct {
	edge       int
	start, end int
}

func (d *runDecoder) release() {
	if cap(d.buf) > maxPooledBuf || cap(d.itemText) > maxPooledBuf ||
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

// reset empties the record of the document, keeping its capacity.
func (d *runDecoder) reset() {
	d.origin, d.edges, d.items, d.itemText = d.origin[:0], d.edges[:0], d.items[:0], d.itemText[:0]
	d.badID, d.badMod = -1, -1
}

// matchRun matches the whole document against the layout AppendRun
// writes and records its vertices, edges and data items. Besides that
// exact layout it allows any run of XML white space wherever AppendRun
// indents, "/>" in place of an empty <vertex> or <edge> end tag, and
// <data> children on any edge. Ids are 1 to 18 ASCII digits and
// attribute values and item names are plainText, so each reads here
// exactly as encoding/xml reads it. It reads nothing after </run>, and
// reports false at the first byte that departs from the layout.
func (d *runDecoder) matchRun(s *spec.Spec) bool {
	buf := d.buf
	if !hasAt(buf, 0, "<run") {
		return false
	}
	i := len("<run")
	if hasAt(buf, i, ` workflow="`) {
		i = scanClass(buf, i+len(` workflow="`), &plainText)
		if !hasAt(buf, i, `"`) {
			return false
		}
		i++
	}
	if i = skipTag(buf, i, ">"); i < 0 {
		return false
	}
	if i = skipTag(buf, i, "<vertices>"); i < 0 {
		return false
	}
	for hasAt(buf, i, `<vertex id="`) {
		id, j := digitsAt(buf, i+len(`<vertex id="`))
		if j < 0 || !hasAt(buf, j, `" module="`) {
			return false
		}
		start := j + len(`" module="`)
		end := scanClass(buf, start, &plainText)
		if !hasAt(buf, end, `"`) {
			return false
		}
		if i = closeAt(buf, end+1, "></vertex>"); i < 0 {
			return false
		}
		d.addVertex(id, buf[start:end], s)
		i = skipSpace(buf, i)
	}
	if i = skipTag(buf, i, "</vertices>"); i < 0 {
		return false
	}
	if i = skipTag(buf, i, "<edges>"); i < 0 {
		return false
	}
	for hasAt(buf, i, `<edge from="`) {
		from, j := digitsAt(buf, i+len(`<edge from="`))
		if j < 0 || !hasAt(buf, j, `" to="`) {
			return false
		}
		to, j := digitsAt(buf, j+len(`" to="`))
		if j < 0 || !hasAt(buf, j, `"`) {
			return false
		}
		e := len(d.edges) / 2
		d.edges = append(d.edges, from, to)
		if i = closeAt(buf, j+1, "></edge>"); i >= 0 {
			i = skipSpace(buf, i)
			continue
		}
		if !hasAt(buf, j+1, ">") {
			return false
		}
		for i = skipSpace(buf, j+2); hasAt(buf, i, "<data>"); i = skipSpace(buf, i) {
			start := i + len("<data>")
			i = scanClass(buf, start, &plainText)
			if !hasAt(buf, i, "</data>") {
				return false
			}
			d.items = append(d.items, itemRef{edge: e, start: len(d.itemText), end: len(d.itemText) + i - start})
			d.itemText = append(d.itemText, buf[start:i]...)
			i += len("</data>")
		}
		if i = skipTag(buf, i, "</edge>"); i < 0 {
			return false
		}
	}
	if i = skipTag(buf, i, "</edges>"); i < 0 {
		return false
	}
	return hasAt(buf, i, "</run>")
}

// decodeXML decodes the document with encoding/xml into the reflective
// run schema and records it as matchRun does: the path for every
// document off the layout AppendRun writes.
func (d *runDecoder) decodeXML(s *spec.Spec) error {
	var x xmlRun
	if err := xml.NewDecoder(bytes.NewReader(d.buf)).Decode(&x); err != nil {
		return err
	}
	for _, v := range x.Vertices {
		d.addVertex(int64(v.ID), []byte(v.Module), s)
	}
	for e, xe := range x.Edges {
		d.edges = append(d.edges, int64(xe.From), int64(xe.To))
		for _, name := range xe.Items {
			d.items = append(d.items, itemRef{edge: e, start: len(d.itemText), end: len(d.itemText) + len(name)})
			d.itemText = append(d.itemText, name...)
		}
	}
	return nil
}

// xmlRun is the reflective run schema: the struct encoding/xml decodes
// a run document into, and the one the codec's oracle tests use.
type xmlRun struct {
	XMLName  xml.Name     `xml:"run"`
	Workflow string       `xml:"workflow,attr,omitempty"`
	Vertices []xmlVertex  `xml:"vertices>vertex"`
	Edges    []xmlRunEdge `xml:"edges>edge"`
}

type xmlVertex struct {
	ID     int    `xml:"id,attr"`
	Module string `xml:"module,attr"`
}

type xmlRunEdge struct {
	From  int      `xml:"from,attr"`
	To    int      `xml:"to,attr"`
	Items []string `xml:"data,omitempty"`
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

// hasAt reports whether buf holds lit at i.
func hasAt(buf []byte, i int, lit string) bool {
	return i+len(lit) <= len(buf) && string(buf[i:i+len(lit)]) == lit
}

// skipTag matches lit at i and the white space after it, returning the
// index past both, or -1 when lit is not there.
func skipTag(buf []byte, i int, lit string) int {
	if !hasAt(buf, i, lit) {
		return -1
	}
	return skipSpace(buf, i+len(lit))
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

// skipSpace returns the index of the first byte at or after i that is
// not XML white space.
func skipSpace(buf []byte, i int) int {
	for i < len(buf) && (buf[i] == ' ' || buf[i] == '\n' || buf[i] == '\t' || buf[i] == '\r') {
		i++
	}
	return i
}

// build turns the recorded document into a validated run, applying the
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

// plainText marks (with 1) the bytes matchRun takes in attribute
// values and item names, each of which encoding/xml reads as itself:
// printable ASCII other than quotes, '&', '<' and ']', plus tab and
// newline.
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
