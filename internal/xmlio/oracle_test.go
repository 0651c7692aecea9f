package xmlio_test

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"testing"

	"repro/internal/dag"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/xmlio"
)

// The reflective run codec over the schema the decoder falls back to.
// It is the oracle: DecodeRun must accept exactly what oracleDecodeRun
// accepts (and decode it identically), and EncodeRun must write
// oracleEncodeRun's bytes.

func oracleEncodeRun(w io.Writer, r *run.Run, ann *provdata.Annotation, workflowName string) error {
	x := xmlio.XMLRun{Workflow: workflowName}
	for v := 0; v < r.NumVertices(); v++ {
		x.Vertices = append(x.Vertices, xmlio.XMLVertex{ID: v, Module: string(r.Spec.NameOf(r.Origin[v]))})
	}
	itemsOn := make(map[dag.Edge][]string)
	if ann != nil {
		for _, it := range ann.Items {
			for _, c := range it.Consumers {
				e := dag.Edge{Tail: it.Producer, Head: c}
				itemsOn[e] = append(itemsOn[e], it.Name)
			}
		}
	}
	for _, e := range r.Graph.Edges() {
		x.Edges = append(x.Edges, xmlio.XMLRunEdge{From: int(e.Tail), To: int(e.Head), Items: itemsOn[e]})
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(x); err != nil {
		return fmt.Errorf("xmlio: encode run: %w", err)
	}
	enc.Flush()
	_, err := io.WriteString(w, "\n")
	return err
}

func oracleDecodeRun(rd io.Reader, s *spec.Spec) (*run.Run, *provdata.Annotation, error) {
	var x xmlio.XMLRun
	if err := xml.NewDecoder(rd).Decode(&x); err != nil {
		return nil, nil, fmt.Errorf("xmlio: decode run: %w", err)
	}
	names := make([]spec.ModuleName, len(x.Vertices))
	for i, v := range x.Vertices {
		if v.ID != i {
			return nil, nil, fmt.Errorf("xmlio: run vertex %d declared with id %d (ids must be dense and ordered)", i, v.ID)
		}
		names[i] = spec.ModuleName(v.Module)
	}
	origin, err := run.OriginByName(s, names)
	if err != nil {
		return nil, nil, err
	}
	var edges []dag.Edge
	type itemKey struct {
		producer dag.VertexID
		name     string
	}
	consumers := make(map[itemKey][]dag.VertexID)
	var order []itemKey
	for _, e := range x.Edges {
		if e.From < 0 || e.From >= len(names) || e.To < 0 || e.To >= len(names) {
			return nil, nil, fmt.Errorf("xmlio: run edge %d->%d out of range", e.From, e.To)
		}
		edges = append(edges, dag.Edge{Tail: dag.VertexID(e.From), Head: dag.VertexID(e.To)})
		for _, item := range e.Items {
			k := itemKey{dag.VertexID(e.From), item}
			if _, ok := consumers[k]; !ok {
				order = append(order, k)
			}
			consumers[k] = append(consumers[k], dag.VertexID(e.To))
		}
	}
	r := &run.Run{Spec: s, Graph: dag.FromEdges(len(names), edges), Origin: origin}
	if err := r.Validate(); err != nil {
		return nil, nil, err
	}
	if len(order) == 0 {
		return r, nil, nil
	}
	ann := &provdata.Annotation{Run: r}
	for i, k := range order {
		ann.Items = append(ann.Items, provdata.Item{
			ID:        provdata.ItemID(i),
			Name:      k.name,
			Producer:  k.producer,
			Consumers: consumers[k],
		})
	}
	if err := ann.Validate(); err != nil {
		return nil, nil, err
	}
	return r, ann, nil
}

// sameDecode fails t unless two decodes produced the same origins, the
// same edge list in the same order and the same annotation.
func sameDecode(t *testing.T, r *run.Run, ann *provdata.Annotation, or *run.Run, oann *provdata.Annotation) {
	t.Helper()
	if fmt.Sprint(r.Origin) != fmt.Sprint(or.Origin) {
		t.Fatalf("origins %v, oracle %v", r.Origin, or.Origin)
	}
	if fmt.Sprint(r.Graph.Edges()) != fmt.Sprint(or.Graph.Edges()) {
		t.Fatalf("edges %v, oracle %v", r.Graph.Edges(), or.Graph.Edges())
	}
	if (ann == nil) != (oann == nil) {
		t.Fatalf("annotation %v, oracle %v", ann, oann)
	}
	if ann == nil {
		return
	}
	if ann.Run != r {
		t.Fatal("annotation is not bound to the decoded run")
	}
	if got, want := fmt.Sprintf("%q", ann.Items), fmt.Sprintf("%q", oann.Items); got != want {
		t.Fatalf("items %s, oracle %s", got, want)
	}
}

// canonical encodes through the oracle encoder, for comparisons.
func canonical(t testing.TB, r *run.Run, ann *provdata.Annotation, workflow string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := oracleEncodeRun(&buf, r, ann, workflow); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
