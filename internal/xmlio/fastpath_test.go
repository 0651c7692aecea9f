package xmlio

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
)

// The one-step element match takes every <vertex> and <edge> of a
// document AppendRun wrote, self-closed or not, and records what the
// tokenizer would: the general tokenizer is left only the containers.
func TestCanonicalElementsMatchInOneStep(t *testing.T) {
	qblast := workload.MustStandIn("QBLAST", 1)
	big, _ := run.GenerateSized(qblast, rand.New(rand.NewSource(1)), 1500)
	fig3, _ := run.Figure3Run(spec.PaperSpec())
	for _, r := range []*run.Run{fig3, big} {
		doc := AppendRun(nil, r, nil, "w")
		for _, layout := range [][]byte{doc, bytes.ReplaceAll(bytes.ReplaceAll(doc, []byte(`"></vertex>`), []byte(`"/>`)), []byte(`"></edge>`), []byte(`"/>`))} {
			d := &runDecoder{buf: layout, badID: -1, badMod: -1}
			d.pos = bytes.Index(layout, []byte("<vertices>")) + len("<vertices>")
			for d.canonicalVertex(r.Spec) {
			}
			if len(d.origin) != r.NumVertices() || !bytes.HasPrefix(layout[d.pos:], []byte("\n  </vertices>")) {
				t.Fatalf("matched %d of %d vertices, stopped at %.40q", len(d.origin), r.NumVertices(), layout[d.pos:])
			}
			if d.badID >= 0 || d.badMod >= 0 {
				t.Fatalf("vertex %d or %d noted as bad", d.badID, d.badMod)
			}
			for v, o := range d.origin {
				if o != r.Origin[v] {
					t.Fatalf("vertex %d: origin %d, want %d", v, o, r.Origin[v])
				}
			}
			d.pos = bytes.Index(layout, []byte("<edges>")) + len("<edges>")
			for d.canonicalEdge() {
			}
			if len(d.edges) != 2*r.NumEdges() || !bytes.HasPrefix(layout[d.pos:], []byte("\n  </edges>")) {
				t.Fatalf("matched %d of %d edges, stopped at %.40q", len(d.edges)/2, r.NumEdges(), layout[d.pos:])
			}
			for i, e := range r.Graph.Edges() {
				if d.edges[2*i] != int64(e.Tail) || d.edges[2*i+1] != int64(e.Head) {
					t.Fatalf("edge %d: %d->%d, want %v", i, d.edges[2*i], d.edges[2*i+1], e)
				}
			}
		}
	}
}

// A document made mostly of data items sizes the vertex and edge
// scratch by no more than a pooled document's worth of bytes, however
// long it is.
func TestScratchSizingIgnoresData(t *testing.T) {
	s := spec.PaperSpec()
	r, _ := run.Figure3Run(s)
	ann := provdata.RandomItems(r, rand.New(rand.NewSource(1)), 1, 0)
	for i := range ann.Items {
		ann.Items[i].Name = strings.Repeat("x", 2*maxPooledBuf/len(ann.Items))
	}
	doc := AppendRun(nil, r, ann, "w")
	if len(doc) <= maxPooledBuf {
		t.Fatalf("document of %d bytes, want more than %d", len(doc), maxPooledBuf)
	}
	d := &runDecoder{buf: doc}
	if _, _, err := d.decode(s); err != nil {
		t.Fatal(err)
	}
	if cap(d.origin) > maxPooledVertices || cap(d.edges) > maxPooledEdgeEnds || cap(d.graphEdges) > maxPooledEdgeEnds/2 {
		t.Fatalf("scratch sized by the data: %d origins, %d edge ends, %d graph edges", cap(d.origin), cap(d.edges), cap(d.graphEdges))
	}
}
