// Package xmliotest holds test inputs shared by the run decoder's
// oracle tests (internal/xmlio) and the PUT path's fuzz target
// (internal/server): near-canonical variants of a canonical run
// document. The decoder matches a whole document laid out as
// xmlio.AppendRun writes it in one step and hands anything else to
// encoding/xml; each variant departs from that layout at one place, or
// stays inside it where the layout is easy to misread (white space is
// indentation only between elements), so the two paths must agree on
// where one ends and the other takes over.
package xmliotest

import (
	"fmt"
	"regexp"
	"strings"
)

var (
	firstVertex = regexp.MustCompile(`<vertex id="0" module="([^"]*)">`)
	firstEdge   = regexp.MustCompile(`<edge from="([0-9]+)" to="([0-9]+)">`)
)

// NearCanonical returns variants of doc, a run document as
// xmlio.AppendRun writes it with at least one vertex and one edge,
// keyed by what each changes. Some still decode, through the element
// match or around it, and some do not: which is for the oracle to say.
func NearCanonical(doc string) map[string]string {
	vm := firstVertex.FindStringSubmatch(doc)
	em := firstEdge.FindStringSubmatch(doc)
	if vm == nil || em == nil {
		panic("xmliotest: not a canonical run document with a vertex and an edge")
	}
	vertex, module := vm[0], vm[1]
	edge, from, to := em[0], em[1], em[2]
	rep := func(old, new string) string { return strings.Replace(doc, old, new, 1) }
	all := func(old, new string) string { return strings.ReplaceAll(doc, old, new) }
	vertexWith := func(attrs string) string { return rep(vertex, "<vertex "+attrs+">") }
	edgeWith := func(attrs string) string { return rep(edge, "<edge "+attrs+">") }
	return map[string]string{
		"module amp entity":       vertexWith(`id="0" module="` + module + `&amp;"`),
		"module char ref":         vertexWith(fmt.Sprintf(`id="0" module="&#%d;%s"`, module[0], module[1:])),
		"module non-ascii":        vertexWith(`id="0" module="` + module + `é"`),
		"module tab":              vertexWith(`id="0" module="` + module + "\t\""),
		"module cr tab":           vertexWith(`id="0" module="` + module + "\r\t\""),
		"module empty":            vertexWith(`id="0" module=""`),
		"crlf":                    all("\n", "\r\n"),
		"cr indent":               rep("\n    <vertex", "\r    <vertex"),
		"tab indent":              all("\n    <", "\n\t<"),
		"leading zero id":         vertexWith(`id="00" module="` + module + `"`),
		"leading zero from":       edgeWith(`from="00` + from + `" to="` + to + `"`),
		"18-digit id":             vertexWith(`id="000000000000000000" module="` + module + `"`),
		"19-digit id":             vertexWith(`id="0000000000000000000" module="` + module + `"`),
		"19-digit large id":       vertexWith(`id="1000000000000000000" module="` + module + `"`),
		"19-digit to":             edgeWith(`from="` + from + `" to="000000000000000000` + to + `"`),
		"20-digit id":             vertexWith(`id="00000000000000000000" module="` + module + `"`),
		"id out of place":         vertexWith(`id="1" module="` + module + `"`),
		"unknown module":          vertexWith(`id="0" module="` + module + `zz"`),
		"edge out of range":       edgeWith(`from="` + from + `" to="999999"`),
		"empty id":                vertexWith(`id="" module="` + module + `"`),
		"spaced id":               vertexWith(`id=" 0" module="` + module + `"`),
		"single-quoted id":        vertexWith(`id='0' module="` + module + `"`),
		"swapped vertex attrs":    vertexWith(`module="` + module + `" id="0"`),
		"swapped edge attrs":      edgeWith(`to="` + to + `" from="` + from + `"`),
		"extra vertex attr":       vertexWith(`id="0" module="` + module + `" x="1"`),
		"extra leading attr":      vertexWith(`x="1" id="0" module="` + module + `"`),
		"extra edge attr":         edgeWith(`from="` + from + `" to="` + to + `" weight="2"`),
		"space before close":      vertexWith(`id="0" module="` + module + `" `),
		"bare vertex":             rep(vertex+"</vertex>", "<vertex/>"),
		"bare edge":               rep(edge+"</edge>", "<edge/>"),
		"self-closing":            strings.NewReplacer(`"></vertex>`, `"/>`, `"></edge>`, `"/>`).Replace(doc),
		"spaced self-closing":     all(`"></vertex>`, `" />`),
		"end tag space":           rep("</vertex>", "</vertex >"),
		"edge data":               rep(edge+"</edge>", edge+"<data>x9</data></edge>"),
		"edge data indented":      rep(edge+"</edge>", edge+"\n      <data>x9</data>\n    </edge>"),
		"data name cr":            rep(edge, edge+"\n      <data>x\r9</data>"),
		"edge unknown child":      rep(edge+"</edge>", edge+"<w/></edge>"),
		"vertex child":            rep(vertex+"</vertex>", vertex+"<note/></vertex>"),
		"prefixed vertex":         rep(vertex+"</vertex>", "<x:vertex"+vertex[len("<vertex"):]+"</x:vertex>"),
		"prefixed attribute":      vertexWith(`x:id="0" module="` + module + `"`),
		"comment between":         strings.NewReplacer("</vertex>", "</vertex><!-- c -->", "</edge>", "</edge><!-- c -->").Replace(doc),
		"text between":            rep("</vertex>", "</vertex>text"),
		"entity between":          rep("</edge>", "</edge>&amp;"),
		"edge in vertices":        rep("</vertex>", "</vertex>"+edge+"</edge>"),
		"vertex in edges":         rep("</edge>", "</edge>"+vertex+"</vertex>"),
		"unclosed vertex":         rep(vertex+"</vertex>", vertex),
		"mismatched end":          rep(vertex+"</vertex>", vertex+"</edge>"),
		"unquoted id":             vertexWith(`id=0 module="` + module + `"`),
		"vertex before container": rep("<vertices>", vertex+"</vertex><vertices>"),
	}
}
