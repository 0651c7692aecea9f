package xmlio_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/xmlio"
	"repro/internal/xmlio/xmliotest"
)

// paperDoc is a small canonical run document of the paper specification
// with one data item per channel, the base every grammar seed varies.
func paperDoc(t testing.TB) (*spec.Spec, string) {
	s := spec.PaperSpec()
	r, _ := run.MustMaterialize(s, run.SingleExec(s))
	ann := provdata.RandomItems(r, rand.New(rand.NewSource(1)), 1, 0.5)
	return s, string(canonical(t, r, ann, "paper"))
}

// grammarSeeds holds one input per grammar construct the decoder must
// share with encoding/xml, plus the edge cases the oracle contract names.
func grammarSeeds(doc string) map[string]string {
	rep := func(old, new string) string { return strings.Replace(doc, old, new, 1) }
	all := func(old, new string) string { return strings.ReplaceAll(doc, old, new) }
	return map[string]string{
		"canonical":              doc,
		"xml declaration":        `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + doc,
		"declaration lowercase":  `<?xml version='1.0' encoding='utf-8' standalone="yes"?>` + doc,
		"declaration bad ver":    `<?xml version="1.1"?>` + doc,
		"declaration latin1":     `<?xml version="1.0" encoding="ISO-8859-1"?>` + doc,
		"comments":               "<!-- lead -->" + rep("<vertices>", "<vertices><!-- in -->") + "<!-- after -->",
		"comment in data":        rep("<data>x1</data>", "<data>x<!-- c -->1</data>"),
		"comment bad dashes":     rep("<vertices>", "<vertices><!-- a -- b -->"),
		"comment three dashes":   rep("<vertices>", "<vertices><!-- a --->"),
		"processing instruction": "<?style x?>" + rep("<edges>", "<edges><?pi some data?>"),
		"doctype":                `<!DOCTYPE run [<!ELEMENT run ANY> <!-- c --> <!ATTLIST x y CDATA "<>">]>` + doc,
		"doctype nested":         `<!DOCTYPE run <<x> '>'> >` + doc,
		"single quotes":          all(`"`, `'`),
		"whitespace":             all(`" module="`, "\"\n\tmodule =\t\""),
		"crlf":                   all("\n", "\r\n"),
		"attribute order":        rep(`<vertex id="0" module="a">`, `<vertex module="a" id="0">`),
		"no space between attrs": rep(`<vertex id="0" module="a">`, `<vertex id="0"module="a">`),
		"attr char refs":         rep(`module="a"`, `module="&#97;"`),
		"attr hex ref":           rep(`module="a"`, `module="&#x61;"`),
		"attr named entity":      rep(`module="a"`, `module="a&amp;"`),
		"attr bad entity":        rep(`module="a"`, `module="&nbsp;"`),
		"attr lt":                rep(`module="a"`, `module="<a"`),
		"attr tab":               rep(`module="a"`, "module=\"\ta\""),
		"data entities":          rep("<data>x1</data>", "<data>&#x78;&#49;&lt;&gt;&apos;&quot;&amp;</data>"),
		"data cdata":             rep("<data>x1</data>", "<data><![CDATA[x1]]></data>"),
		"data mixed cdata":       rep("<data>x1</data>", "<data>x<![CDATA[<1>]]></data>"),
		"data cr":                rep("<data>x1</data>", "<data>x\r\n1\r</data>"),
		"data surrogate ref":     rep("<data>x1</data>", "<data>&#xD800;</data>"),
		"data nul ref":           rep("<data>x1</data>", "<data>&#0;</data>"),
		"data huge ref":          rep("<data>x1</data>", "<data>&#99999999999999999999;</data>"),
		"data upper X ref":       rep("<data>x1</data>", "<data>&#X78;</data>"),
		"data cdata end":         rep("<data>x1</data>", "<data>x]]>1</data>"),
		"empty data":             rep("<data>x1</data>", "<data></data>"),
		"namespaces": strings.NewReplacer(
			"<run ", `<p:run xmlns:p="urn:p" xmlns="urn:d" `, "</run>", "</p:run>",
			"<vertex ", "<q:vertex ", "</vertex>", "</q:vertex>", ` id=`, ` p:id=`).Replace(doc),
		"xmlns attr as id":   rep(`<vertex id="0" module="a">`, `<vertex xmlns:id="0" module="a">`),
		"mismatched prefix":  rep("</vertex>", "</p:vertex>"),
		"two colons":         rep("<vertices>", "<vertices><a:b:c/>"),
		"unknown attributes": all(`module="a"`, `module="a" color="red"`),
		"unknown elements":   rep("<vertices>", `<meta><x a="1">t</x></meta><vertices><other/>`),
		"unknown in vertex":  rep(`module="a"></vertex>`, `module="a"><note>hi<b/></note></vertex>`),
		"unknown in edge":    rep("<data>x1</data>", "<weight><nested><deeper/></nested></weight><data>x1</data>"),
		"unknown in data":    rep("<data>x1</data>", "<data>x<b>zz</b>1</data>"),
		"nested containers":  rep("<vertices>", "<vertices><vertices><vertex/></vertices>"),
		"self closing":       all(`"></vertex>`, `"/>`),
		"split vertices":     rep(`<vertex id="4"`, `</vertices><vertices><vertex id="4"`),
		"edges first":        "<run><edges><edge from=\"0\" to=\"6\"/></edges>" + doc[len("<run workflow=\"paper\">"):],
		"leading text":       "some text\n" + doc,
		"byte order mark":    "\ufeff" + doc,
		"trailing garbage":   doc + "<<<garbage & more",
		"second root":        doc + "<run>",
		"wrong root":         all("run>", "workflow>"),
		"id empty":           rep(`id="0"`, `id=""`),
		"id spaced":          rep(`id="3"`, `id=" 3 "`),
		"id plus":            rep(`id="3"`, `id="+3"`),
		"id space only":      rep(`id="3"`, `id=" "`),
		"id unicode space":   rep(`id="3"`, "id=\"\u00a03\""),
		"id hex":             rep(`id="3"`, `id="0x3"`),
		"id huge":            rep(`id="3"`, `id="99999999999999999999"`),
		"from plus":          rep(`from="0"`, `from="+0"`),
		"duplicate id":       rep(`id="0"`, `id="9" id="0"`),
		"duplicate bad id":   rep(`id="0"`, `id="x" id="0"`),
		"duplicate module":   rep(`module="a"`, `module="zz" module="a"`),
		"invalid utf8 data":  rep("<data>x1</data>", "<data>x\xff1</data>"),
		"invalid utf8 attr":  rep(`module="a"`, "module=\"a\xff\""),
		"invalid utf8 text":  rep("<vertices>", "<vertices>\xc3"),
		"invalid utf8 cmt":   rep("<vertices>", "<vertices><!-- \xff -->"),
		"control char":       rep("<vertices>", "<vertices>\x01"),
		"non-ascii name":     rep("<vertices>", "<vertices><données/>"),
		"non-ascii attr":     rep(`module="a"`, `module="a" é="1"`),
		"non-ascii pi":       "<?é?>" + doc,
		"unclosed":           doc[:len(doc)/2],
		"space before name":  rep("<vertices>", "< vertices>"),
		"space in end tag":   all("</edge>", "</edge \n>"),
		"empty":              "",
		"only root":          "<run/>",
		"end before root":    "</run>" + doc,
	}
}

// plainDoc is the canonical document of the paper's Figure 3 run
// without data items: every vertex and every edge is laid out as the
// decoder's one-step element match expects.
func plainDoc(t testing.TB) string {
	s := spec.PaperSpec()
	r, _ := run.Figure3Run(s)
	return string(canonical(t, r, nil, "paper"))
}

// nearCanonicalSeeds are the near-canonical variants of the document
// with data items and of the one without.
func nearCanonicalSeeds(t testing.TB) map[string]string {
	_, doc := paperDoc(t)
	seeds := make(map[string]string)
	for name, in := range xmliotest.NearCanonical(doc) {
		seeds["items, "+name] = in
	}
	for name, in := range xmliotest.NearCanonical(plainDoc(t)) {
		seeds["plain, "+name] = in
	}
	return seeds
}

// FuzzDecodeRunOracle pins DecodeRun to encoding/xml: it accepts
// exactly what the reflective decoder accepts, with the same origins,
// edges and annotation, and rejects the rest with the same error.
func FuzzDecodeRunOracle(f *testing.F) {
	s, doc := paperDoc(f)
	seeds := grammarSeeds(doc)
	maps.Copy(seeds, nearCanonicalSeeds(f))
	for _, name := range slices.Sorted(maps.Keys(seeds)) {
		f.Add(seeds[name])
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkAgainstOracle(t, s, input)
	})
}

func checkAgainstOracle(t *testing.T, s *spec.Spec, input string) {
	t.Helper()
	r, ann, err := xmlio.DecodeRun(strings.NewReader(input), s)
	or, oann, oerr := oracleDecodeRun(strings.NewReader(input), s)
	// The held-bytes path a stored session decodes through is the same
	// decoder: same run, same error.
	br, bann, berr := xmlio.DecodeRunBytes([]byte(input), s)
	switch {
	case (err == nil) != (berr == nil):
		t.Fatalf("DecodeRun err = %v, DecodeRunBytes err = %v", err, berr)
	case err != nil && err.Error() != berr.Error():
		t.Fatalf("DecodeRun err = %q, DecodeRunBytes err = %q", err, berr)
	case err == nil:
		sameDecode(t, br, bann, r, ann)
	}
	switch {
	case err == nil && oerr != nil:
		t.Fatalf("accepted what the oracle rejects (%v)", oerr)
	case err == nil:
		sameDecode(t, r, ann, or, oann)
	case oerr == nil:
		t.Fatalf("rejected what the oracle accepts: %v", err)
	case err.Error() != oerr.Error():
		t.Fatalf("err = %q, oracle err = %q", err, oerr)
	}
}

// The grammar seeds that must decode do: FuzzDecodeRunOracle only
// shows that DecodeRun agrees with the oracle, which it also would if
// both rejected a seed by accident.
func TestDecodeRunGrammar(t *testing.T) {
	s, doc := paperDoc(t)
	seeds := grammarSeeds(doc)
	for _, name := range []string{
		"canonical", "xml declaration", "comments", "comment in data", "processing instruction",
		"doctype", "doctype nested", "single quotes", "whitespace", "crlf", "attribute order",
		"no space between attrs", "attr char refs", "attr hex ref", "data entities", "data cdata",
		"data mixed cdata", "data cr", "data surrogate ref", "empty data", "namespaces",
		"xmlns attr as id", "unknown attributes", "unknown elements", "unknown in vertex",
		"unknown in edge", "unknown in data", "nested containers", "self closing", "split vertices",
		"edges first", "leading text", "byte order mark", "trailing garbage", "second root",
		"id empty", "id spaced", "id plus", "id unicode space", "from plus", "duplicate id",
		"duplicate module", "invalid utf8 cmt", "space in end tag", "non-ascii name", "non-ascii attr",
		"non-ascii pi",
	} {
		in, ok := seeds[name]
		if !ok {
			t.Fatalf("no seed %q", name)
		}
		if _, _, err := xmlio.DecodeRun(strings.NewReader(in), s); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Where a document departs from the layout matchRun takes, the
// encoding/xml fallback decides: every near-canonical variant, and every
// prefix of a small canonical document, decodes as encoding/xml decodes
// it or is rejected with its error, whichever path took it. The
// variants that must still decode do.
func TestDecodeRunNearCanonical(t *testing.T) {
	s := spec.PaperSpec()
	seeds := nearCanonicalSeeds(t)
	for _, name := range slices.Sorted(maps.Keys(seeds)) {
		t.Run(name, func(t *testing.T) { checkAgainstOracle(t, s, seeds[name]) })
	}
	for _, name := range []string{
		"crlf", "cr indent", "tab indent", "leading zero id", "leading zero from", "18-digit id",
		"19-digit id", "19-digit to", "spaced id", "single-quoted id", "swapped vertex attrs",
		"swapped edge attrs", "extra vertex attr", "extra leading attr", "extra edge attr",
		"space before close", "self-closing", "spaced self-closing", "end tag space", "edge data",
		"edge data indented", "edge unknown child", "vertex child", "prefixed vertex",
		"prefixed attribute", "comment between", "text between", "entity between", "module char ref",
		"edge in vertices", "vertex in edges", "vertex before container", "data name cr",
	} {
		for _, doc := range []string{"items, ", "plain, "} {
			in, ok := seeds[doc+name]
			if !ok {
				t.Fatalf("no seed %q", doc+name)
			}
			if _, _, err := xmlio.DecodeRun(strings.NewReader(in), s); err != nil {
				t.Errorf("%s%s: %v", doc, name, err)
			}
		}
	}
	doc := plainDoc(t)
	for i := range len(doc) {
		checkAgainstOracle(t, s, doc[:i])
	}
}

// The one way DecodeRun departs from encoding/xml: it reads the whole
// body, so a read error after the root element fails the decode.
func TestDecodeRunDivergences(t *testing.T) {
	s, doc := paperDoc(t)
	t.Run("read error after the root", func(t *testing.T) {
		// The oracle stops reading at </run>; DecodeRun reads the whole
		// body, so a failure after the root still fails the decode.
		broken := errors.New("connection reset")
		body := func() io.Reader { return io.MultiReader(strings.NewReader(doc), &failingReader{err: broken}) }
		if _, _, err := oracleDecodeRun(body(), s); err != nil {
			t.Fatalf("oracle: %v", err)
		}
		if _, _, err := xmlio.DecodeRun(body(), s); !errors.Is(err, broken) {
			t.Fatalf("err = %v, want the read error", err)
		}
	})
}

type failingReader struct{ err error }

func (f *failingReader) Read([]byte) (int, error) { return 0, f.err }

// A reader failing mid-document keeps its error's identity through
// DecodeRun, so the server can still tell a transient storage fault or
// an oversized body from a malformed document.
func TestDecodeRunReadErrorsClassify(t *testing.T) {
	s, doc := paperDoc(t)
	fault := store.Transient(errors.New("disk hiccup"))
	rd := io.MultiReader(strings.NewReader(doc[:len(doc)/2]), &failingReader{err: fault})
	_, _, err := xmlio.DecodeRun(rd, s)
	if !errors.Is(err, store.ErrTransient) {
		t.Fatalf("err = %v, want errors.Is ErrTransient", err)
	}
	if !strings.HasPrefix(err.Error(), "xmlio: decode run: ") {
		t.Errorf("err = %q, want the decode-run prefix", err)
	}
}

// The decoded run shares no memory with the input: mutating the buffer
// afterwards changes nothing.
func TestDecodeRunRetainsNoInput(t *testing.T) {
	s, doc := paperDoc(t)
	in := []byte(doc)
	r, ann, err := xmlio.DecodeRun(bytes.NewReader(in), s)
	if err != nil {
		t.Fatal(err)
	}
	before := fmt.Sprintf("%v %q", r.Origin, ann.Items)
	for i := range in {
		in[i] = 'z'
	}
	// Decode something else through the pooled scratch as well.
	if _, _, err := xmlio.DecodeRun(strings.NewReader(strings.ReplaceAll(doc, "<data>x", "<data>y")), s); err != nil {
		t.Fatal(err)
	}
	if after := fmt.Sprintf("%v %q", r.Origin, ann.Items); after != before {
		t.Fatalf("decoded run changed with its input:\n%s\n%s", before, after)
	}
}

// A Document holds exactly the document read, and Decode decodes it as
// DecodeRun does without changing it. DecodeRunBytes decodes a slice
// the caller owns without writing into it, even while the pool reads
// and decodes other documents, and keeps no reference to it. Neither
// decoded run shares memory with the bytes it came from: overwriting
// them afterwards changes nothing.
func TestReadRunDocumentThenDecodeBytes(t *testing.T) {
	s, doc := paperDoc(t)
	want, wantAnn, err := xmlio.DecodeRun(strings.NewReader(doc), s)
	if err != nil {
		t.Fatal(err)
	}

	// A slice the caller owns, as store.OpenRun passes a borrowed blob.
	owned := []byte(doc)
	br, bann, err := xmlio.DecodeRunBytes(owned, s)
	if err != nil {
		t.Fatal(err)
	}
	if string(owned) != doc {
		t.Fatal("DecodeRunBytes modified its input")
	}
	sameDecode(t, br, bann, want, wantAnn)
	bytesBefore := fmt.Sprintf("%v %q", br.Origin, bann.Items)

	held, err := xmlio.ReadRunDocument(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if string(held.Bytes()) != doc {
		t.Fatalf("held %d bytes for a %d-byte document", len(held.Bytes()), len(doc))
	}
	r, ann, err := held.Decode(s)
	if err != nil {
		t.Fatal(err)
	}
	if string(held.Bytes()) != doc {
		t.Fatal("Decode modified the document")
	}
	sameDecode(t, r, ann, want, wantAnn)
	before := fmt.Sprintf("%v %q", r.Origin, ann.Items)
	// Overwrite the decoder's buffer before handing it back: whether or
	// not the pool returns this decoder, nothing decoded may change.
	for i, b := 0, held.Bytes(); i < len(b); i++ {
		b[i] = 'z'
	}
	held.Release()
	if after := fmt.Sprintf("%v %q", r.Origin, ann.Items); after != before {
		t.Fatalf("decoded run changed with the decoder's buffer:\n%s\n%s", before, after)
	}

	// Reading and decoding other documents through the pool must not
	// write into the bytes DecodeRunBytes was given.
	other := strings.ReplaceAll(doc, "<data>x", "<data>y")
	for range 3 {
		if _, _, err := xmlio.DecodeRun(strings.NewReader(other), s); err != nil {
			t.Fatal(err)
		}
		od, err := xmlio.ReadRunDocument(strings.NewReader(other))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := od.Decode(s); err != nil {
			t.Fatal(err)
		}
		od.Release()
		if _, _, err := xmlio.DecodeRunBytes([]byte(other), s); err != nil {
			t.Fatal(err)
		}
	}
	if string(owned) != doc {
		t.Fatal("pooled decoding wrote into bytes DecodeRunBytes was given")
	}
	for i := range owned {
		owned[i] = 'z'
	}
	if after := fmt.Sprintf("%v %q", br.Origin, bann.Items); after != bytesBefore {
		t.Fatalf("decoded run changed with its input:\n%s\n%s", bytesBefore, after)
	}
	if after := fmt.Sprintf("%v %q", r.Origin, ann.Items); after != before {
		t.Fatalf("decoded run changed with the decoder's buffer:\n%s\n%s", before, after)
	}
	xmlio.Document{}.Release() // the zero Document holds nothing to release

	// A read failing mid-document keeps its identity, under the same
	// prefix DecodeRun gives it.
	fault := store.Transient(errors.New("disk hiccup"))
	_, err = xmlio.ReadRunDocument(io.MultiReader(strings.NewReader(doc[:len(doc)/2]), &failingReader{err: fault}))
	if !errors.Is(err, store.ErrTransient) || !strings.HasPrefix(err.Error(), "xmlio: decode run: ") {
		t.Fatalf("err = %v, want the transient read error under the decode-run prefix", err)
	}
}

// oddSpec builds a bare two-module specification and a run over it from
// fuzz input: the encoder only reads names, origins and edges, so the
// run need not be valid. Parallel edges and item names repeated across
// channels are part of the shape.
func oddRun(modA, modB, item string, seed int64) (*run.Run, *provdata.Annotation) {
	rng := rand.New(rand.NewSource(seed))
	s := &spec.Spec{Names: []spec.ModuleName{spec.ModuleName(modA), spec.ModuleName(modB)}}
	n := rng.Intn(7)
	origin := make([]dag.VertexID, n)
	for v := range origin {
		origin[v] = dag.VertexID(rng.Intn(2))
	}
	var edges []dag.Edge
	for i := 0; n > 0 && i < rng.Intn(3*n); i++ {
		edges = append(edges, dag.Edge{Tail: dag.VertexID(rng.Intn(n)), Head: dag.VertexID(rng.Intn(n))})
	}
	r := &run.Run{Spec: s, Graph: dag.FromEdges(n, edges), Origin: origin}
	ann := &provdata.Annotation{Run: r}
	for i := 0; n > 0 && i < rng.Intn(4); i++ {
		it := provdata.Item{ID: provdata.ItemID(i), Name: item, Producer: dag.VertexID(rng.Intn(n))}
		if i%2 == 1 {
			it.Name += fmt.Sprint(i)
		}
		for j := 0; j <= rng.Intn(3); j++ {
			it.Consumers = append(it.Consumers, dag.VertexID(rng.Intn(n)))
		}
		ann.Items = append(ann.Items, it)
	}
	return r, ann
}

// FuzzEncodeRunOracle checks byte identity with encoding/xml on runs
// whose names carry arbitrary bytes.
func FuzzEncodeRunOracle(f *testing.F) {
	f.Add("paper", "a", "b", "x1", int64(1))
	f.Add("", "a&b", "<m>", `q"uote'`, int64(2))
	f.Add("tab\there", "nl\nhere", "cr\rhere", "bad\xffutf8", int64(3))
	f.Add("\x00\x1f", "\ufffd", "\xef\xbf\xbe", "", int64(4))
	f.Fuzz(func(t *testing.T, workflow, modA, modB, item string, seed int64) {
		r, ann := oddRun(modA, modB, item, seed)
		for _, a := range []*provdata.Annotation{nil, ann} {
			var got bytes.Buffer
			if err := xmlio.EncodeRun(&got, r, a, workflow); err != nil {
				t.Fatal(err)
			}
			if want := canonical(t, r, a, workflow); !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("encoding differs from encoding/xml:\n got %q\nwant %q", got.Bytes(), want)
			}
		}
	})
}

// TestEncodeRunMatchesOracle compares EncodeRun with encoding/xml on
// generated runs with and without data items and on names that need
// escaping.
func TestEncodeRunMatchesOracle(t *testing.T) {
	type tc struct {
		name     string
		r        *run.Run
		ann      *provdata.Annotation
		workflow string
	}
	var cases []tc
	paper := spec.PaperSpec()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		r, _ := run.GenerateSized(paper, rng, 30+40*i)
		cases = append(cases,
			tc{fmt.Sprintf("paper %d", i), r, nil, "paper"},
			tc{fmt.Sprintf("paper %d with data", i), r, provdata.RandomItems(r, rng, 1.5, 0.5), "paper"})
	}
	qblast, err := workload.StandIn("QBLAST", 1)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(qblast, rand.New(rand.NewSource(2)), 1000)
	cases = append(cases, tc{"qblast 1000", r, nil, "QBLAST"},
		tc{"qblast 1000 with data", r, provdata.RandomItems(r, rng, 1, 0.3), "QBLAST"})
	odd := []string{"a&b", "<m>", `q"uote`, "ap'os", "tab\there", "nl\nhere", "cr\rhere", "bad\xffutf8", "ctl\x01", " ok"}
	for i, name := range odd {
		r, ann := oddRun(name, odd[(i+1)%len(odd)], odd[(i+2)%len(odd)], int64(i))
		cases = append(cases, tc{"odd names " + name, r, ann, odd[(i+3)%len(odd)]})
	}
	cases = append(cases, tc{"empty run", &run.Run{Spec: paper, Graph: dag.FromEdges(0, nil)}, nil, ""})
	for _, c := range cases {
		var got bytes.Buffer
		if err := xmlio.EncodeRun(&got, c.r, c.ann, c.workflow); err != nil {
			t.Fatal(err)
		}
		if want := canonical(t, c.r, c.ann, c.workflow); !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: encoding differs from encoding/xml:\n got %q\nwant %q", c.name, got.Bytes(), want)
		}
	}
}

// EncodeRun reports a failing writer.
func TestEncodeRunWriteError(t *testing.T) {
	s := spec.PaperSpec()
	r, _ := run.MustMaterialize(s, run.SingleExec(s))
	broken := errors.New("disk full")
	if err := xmlio.EncodeRun(&failingWriter{err: broken}, r, nil, "paper"); !errors.Is(err, broken) {
		t.Fatalf("err = %v, want the write error", err)
	}
}

type failingWriter struct{ err error }

func (f *failingWriter) Write([]byte) (int, error) { return 0, f.err }
