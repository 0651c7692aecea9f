package xmlio

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/workload"
)

// matchRun takes whole every document AppendRun writes, with or without
// data items, with LF or CRLF line ends and with empty elements
// self-closed, and the document decodes to the run written: the
// encoding/xml fallback is left only the documents other writers make.
func TestMatchRunTakesAppendRunLayout(t *testing.T) {
	qblast := workload.MustStandIn("QBLAST", 1)
	big, _ := run.GenerateSized(qblast, rand.New(rand.NewSource(1)), 1500)
	fig3, _ := run.Figure3Run(spec.PaperSpec())
	for _, r := range []*run.Run{fig3, big} {
		for _, ann := range []*provdata.Annotation{nil, provdata.RandomItems(r, rand.New(rand.NewSource(2)), 1.5, 0.3)} {
			doc := AppendRun(nil, r, ann, "w")
			layouts := map[string][]byte{
				"lf":   doc,
				"crlf": bytes.ReplaceAll(doc, []byte("\n"), []byte("\r\n")),
				"self-closed": bytes.ReplaceAll(bytes.ReplaceAll(doc,
					[]byte(`"></vertex>`), []byte(`"/>`)), []byte(`"></edge>`), []byte(`"/>`)),
			}
			for name, layout := range layouts {
				d := &runDecoder{buf: layout}
				d.reset()
				if !d.matchRun(r.Spec) {
					t.Fatalf("%d vertices, items %t, %s: matchRun refused the document", r.NumVertices(), ann != nil, name)
				}
				got, gotAnn, err := d.build(r.Spec)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Origin, r.Origin) || !slices.Equal(got.Graph.Edges(), r.Graph.Edges()) {
					t.Fatalf("%d vertices, %s: decoded run differs from the one written", r.NumVertices(), name)
				}
				if (gotAnn == nil) != (ann == nil) || ann != nil && !slices.Equal(itemSet(gotAnn), itemSet(ann)) {
					t.Fatalf("%d vertices, %s: decoded items differ from the ones written", r.NumVertices(), name)
				}
			}
		}
	}
}

// itemSet lists an annotation's items as producer, name and sorted
// consumers, in sorted order, so annotations compare whatever their
// item ids.
func itemSet(ann *provdata.Annotation) []string {
	var set []string
	for _, it := range ann.Items {
		set = append(set, fmt.Sprint(it.Producer, " ", it.Name, " ", slices.Sorted(slices.Values(it.Consumers))))
	}
	slices.Sort(set)
	return set
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
