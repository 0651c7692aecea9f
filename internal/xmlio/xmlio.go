package xmlio

import (
	"encoding/xml"
	"fmt"
	"io"

	"repro/internal/dag"
	"repro/internal/spec"
)

// xmlSpec is the on-disk form of a specification.
type xmlSpec struct {
	XMLName   xml.Name      `xml:"workflow"`
	Name      string        `xml:"name,attr,omitempty"`
	Modules   []xmlModule   `xml:"modules>module"`
	Edges     []xmlSpecEdge `xml:"edges>edge"`
	Subgraphs []xmlSubgraph `xml:"subgraphs>subgraph"`
}

type xmlModule struct {
	Name string `xml:"name,attr"`
}

type xmlSpecEdge struct {
	From string `xml:"from,attr"`
	To   string `xml:"to,attr"`
}

type xmlSubgraph struct {
	Kind  string        `xml:"kind,attr"` // "fork" or "loop"
	Edges []xmlSpecEdge `xml:"edge"`
}

// EncodeSpec writes the specification as XML.
func EncodeSpec(w io.Writer, s *spec.Spec, name string) error {
	x := xmlSpec{Name: name}
	for v := 0; v < s.NumVertices(); v++ {
		x.Modules = append(x.Modules, xmlModule{Name: string(s.Names[v])})
	}
	for _, e := range s.Graph.Edges() {
		x.Edges = append(x.Edges, xmlSpecEdge{From: string(s.Names[e.Tail]), To: string(s.Names[e.Head])})
	}
	for _, sub := range s.Subgraphs {
		xs := xmlSubgraph{Kind: sub.Kind.String()}
		for _, e := range sub.Edges {
			xs.Edges = append(xs.Edges, xmlSpecEdge{From: string(s.Names[e.Tail]), To: string(s.Names[e.Head])})
		}
		x.Subgraphs = append(x.Subgraphs, xs)
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(x); err != nil {
		return fmt.Errorf("xmlio: encode spec: %w", err)
	}
	enc.Flush()
	_, err := io.WriteString(w, "\n")
	return err
}

// DecodeSpec reads a specification from XML and validates it.
func DecodeSpec(r io.Reader) (*spec.Spec, string, error) {
	var x xmlSpec
	if err := xml.NewDecoder(r).Decode(&x); err != nil {
		return nil, "", fmt.Errorf("xmlio: decode spec: %w", err)
	}
	b := spec.NewBuilder()
	ids := make(map[string]dag.VertexID, len(x.Modules))
	for _, m := range x.Modules {
		ids[m.Name] = b.Module(spec.ModuleName(m.Name))
	}
	resolve := func(name string) (dag.VertexID, error) {
		id, ok := ids[name]
		if !ok {
			return 0, fmt.Errorf("xmlio: unknown module %q", name)
		}
		return id, nil
	}
	for _, e := range x.Edges {
		if _, err := resolve(e.From); err != nil {
			return nil, "", err
		}
		if _, err := resolve(e.To); err != nil {
			return nil, "", err
		}
		b.Edge(spec.ModuleName(e.From), spec.ModuleName(e.To))
	}
	for _, xs := range x.Subgraphs {
		var kind spec.Kind
		switch xs.Kind {
		case "fork":
			kind = spec.Fork
		case "loop":
			kind = spec.Loop
		default:
			return nil, "", fmt.Errorf("xmlio: unknown subgraph kind %q", xs.Kind)
		}
		edges := make([]dag.Edge, 0, len(xs.Edges))
		for _, e := range xs.Edges {
			u, err := resolve(e.From)
			if err != nil {
				return nil, "", err
			}
			v, err := resolve(e.To)
			if err != nil {
				return nil, "", err
			}
			edges = append(edges, dag.Edge{Tail: u, Head: v})
		}
		b.SubgraphEdges(kind, edges)
	}
	s, err := b.Build()
	if err != nil {
		return nil, "", err
	}
	return s, x.Name, nil
}
