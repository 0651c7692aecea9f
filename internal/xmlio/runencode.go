package xmlio

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/dag"
	"repro/internal/provdata"
	"repro/internal/run"
)

var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// EncodeRun writes the run (and, when ann is non-nil, its data items) as
// XML. Items shared across channels appear on every channel they flow
// over, identified by name, like x1 in Figure 11. The document is
// written with a single Write.
func EncodeRun(w io.Writer, r *run.Run, ann *provdata.Annotation, workflowName string) error {
	bp := encodePool.Get().(*[]byte)
	b := appendRun((*bp)[:0], r, ann, workflowName)
	_, err := w.Write(b)
	if cap(b) <= maxPooledBuf {
		*bp = b
		encodePool.Put(bp)
	}
	if err != nil {
		return fmt.Errorf("xmlio: encode run: %w", err)
	}
	return nil
}

// appendRun appends the run document in the layout encoding/xml's
// Encoder produced for it with Indent("", "  "), plus a final newline.
// Empty item names are omitted, as its omitempty did.
func appendRun(b []byte, r *run.Run, ann *provdata.Annotation, workflowName string) []byte {
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
