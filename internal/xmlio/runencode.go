package xmlio

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/dag"
	"repro/internal/provdata"
	"repro/internal/run"
)

// bufPool holds the byte buffers run documents and label snapshots are
// encoded into, here and on the store's write path.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// GetBuffer returns a pooled byte buffer, of length 0, to append a run
// document or a label snapshot into. Hand it back with PutBuffer once
// nothing reads it.
func GetBuffer() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// PutBuffer returns a buffer GetBuffer gave out, keeping it only up to
// maxPooledBuf, the bound a pooled decoder's buffer has too.
func PutBuffer(bp *[]byte) {
	if cap(*bp) <= maxPooledBuf {
		bufPool.Put(bp)
	}
}

// EncodeRun writes the run (and, when ann is non-nil, its data items) as
// XML. Items shared across channels appear on every channel they flow
// over, identified by name, like x1 in Figure 11. The document is
// written with a single Write.
func EncodeRun(w io.Writer, r *run.Run, ann *provdata.Annotation, workflowName string) error {
	bp := GetBuffer()
	*bp = AppendRun(*bp, r, ann, workflowName)
	_, err := w.Write(*bp)
	PutBuffer(bp)
	if err != nil {
		return fmt.Errorf("xmlio: encode run: %w", err)
	}
	return nil
}

// AppendRun appends the document EncodeRun writes to b and returns the
// extended slice, for a caller that keeps its own buffer: the layout
// encoding/xml's Encoder produced for it with Indent("", "  "), plus a
// final newline. Empty item names are omitted, as its omitempty did. b
// is grown once, to the size of the document without data items,
// before anything is written.
func AppendRun(b []byte, r *run.Run, ann *provdata.Annotation, workflowName string) []byte {
	b = slices.Grow(b, runSize(r, workflowName))
	b = append(b, "<run"...)
	if workflowName != "" {
		b = append(b, ` workflow="`...)
		b = appendEscaped(b, workflowName)
		b = append(b, '"')
	}
	b = append(b, ">\n  <vertices>"...)
	n := r.NumVertices()
	for v := 0; v < n; v++ {
		b = append(b, "\n    <vertex id=\""...)
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, `" module="`...)
		b = appendEscaped(b, string(r.Spec.NameOf(r.Origin[v])))
		b = append(b, `"></vertex>`...)
	}
	if n > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "</vertices>\n  <edges>"...)
	var itemsOn map[dag.Edge][]string
	if ann != nil && len(ann.Items) > 0 {
		itemsOn = make(map[dag.Edge][]string)
		for _, it := range ann.Items {
			if it.Name == "" {
				continue
			}
			for _, c := range it.Consumers {
				e := dag.Edge{Tail: it.Producer, Head: c}
				itemsOn[e] = append(itemsOn[e], it.Name)
			}
		}
	}
	for u := 0; u < n; u++ {
		for _, v := range r.Graph.Out(dag.VertexID(u)) {
			b = append(b, "\n    <edge from=\""...)
			b = strconv.AppendInt(b, int64(u), 10)
			b = append(b, `" to="`...)
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, `">`...)
			items := itemsOn[dag.Edge{Tail: dag.VertexID(u), Head: v}]
			for _, name := range items {
				b = append(b, "\n      <data>"...)
				b = appendEscaped(b, name)
				b = append(b, "</data>"...)
			}
			if len(items) > 0 {
				b = append(b, "\n    "...)
			}
			b = append(b, "</edge>"...)
		}
	}
	if r.NumEdges() > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, "</edges>\n</run>\n"...)
}

// runSize is the size of r's document without data items, or a little
// more: it counts every id with as many digits as the largest one, and
// module names unescaped.
func runSize(r *run.Run, workflowName string) int {
	n, m := r.NumVertices(), r.NumEdges()
	digits := 1
	for x := n; x >= 10; x /= 10 {
		digits++
	}
	size := len("<run workflow=\"\">\n  <vertices>\n  </vertices>\n  <edges>\n  </edges>\n</run>\n") + len(workflowName)
	size += n * (len("\n    <vertex id=\"\" module=\"\"></vertex>") + digits)
	for _, o := range r.Origin[:n] {
		size += len(r.Spec.Names[o])
	}
	return size + m*(len("\n    <edge from=\"\" to=\"\"></edge>")+2*digits)
}

// appendEscaped appends s escaped as encoding/xml escapes attribute
// values and text: the five markup characters, tab, newline and
// carriage return become references, and bytes that are not UTF-8 or
// not XML characters become U+FFFD.
func appendEscaped(b []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\'' && c != '&' && c != '<' && c != '>' {
			i++
			continue
		}
		var esc string
		width := 1
		switch c {
		case '"':
			esc = "&#34;"
		case '\'':
			esc = "&#39;"
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '\t':
			esc = "&#x9;"
		case '\n':
			esc = "&#xA;"
		case '\r':
			esc = "&#xD;"
		default:
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if isInCharacterRange(r) && (r != utf8.RuneError || width > 1) {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		b = append(b, s[last:i]...)
		b = append(b, esc...)
		i += width
		last = i
	}
	return append(b, s[last:]...)
}

func isInCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
