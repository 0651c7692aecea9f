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
		"unclosed":           doc[:len(doc)/2],
		"space before name":  rep("<vertices>", "< vertices>"),
		"space in end tag":   all("</edge>", "</edge \n>"),
		"empty":              "",
		"only root":          "<run/>",
		"end before root":    "</run>" + doc,
	}
}

// FuzzDecodeRunOracle pins DecodeRun to encoding/xml: whatever it
// accepts the reflective decoder accepts with the same origins, edges
// and annotation, and whatever that decoder rejects it rejects too. The
// only inputs it may reject that the oracle accepts are the documented
// divergences.
func FuzzDecodeRunOracle(f *testing.F) {
	s, doc := paperDoc(f)
	seeds := grammarSeeds(doc)
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
	switch {
	case err == nil && oerr != nil:
		t.Fatalf("accepted what the oracle rejects (%v)", oerr)
	case err == nil:
		sameDecode(t, r, ann, or, oann)
	case oerr == nil && !documentedDivergence(input):
		t.Fatalf("rejected what the oracle accepts: %v", err)
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
		"duplicate module", "invalid utf8 cmt", "space in end tag",
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

// The documented divergences, one test each: inputs encoding/xml
// accepts and DecodeRun rejects by design.
func TestDecodeRunDivergences(t *testing.T) {
	s, doc := paperDoc(t)
	t.Run("non-ascii names", func(t *testing.T) {
		for _, in := range []string{
			strings.Replace(doc, "<vertices>", "<vertices><données/>", 1),
			strings.Replace(doc, `module="a"`, `module="a" é="1"`, 1),
			"<?é?>" + doc,
		} {
			if _, _, err := oracleDecodeRun(strings.NewReader(in), s); err != nil {
				t.Fatalf("oracle rejects %q: %v", in[:40], err)
			}
			if _, _, err := xmlio.DecodeRun(strings.NewReader(in), s); err == nil {
				t.Fatal("non-ASCII name accepted")
			}
		}
	})
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

// oddSpec builds a bare two-module specification and a run over it from
// fuzz input: the encoder only reads names, origins and edges, so the
// run need not be valid. Parallel edges and item names repeated across
// channels are part of the shape.
func oddRun(modA, modB, item string, seed int64) (*run.Run, *provdata.Annotation) {
	rng := rand.New(rand.NewSource(seed))
	s := &spec.Spec{Names: []spec.ModuleName{spec.ModuleName(modA), spec.ModuleName(modB)}}
	n := rng.Intn(7)
	g := dag.New(n)
	origin := make([]dag.VertexID, n)
	for v := range origin {
		origin[v] = dag.VertexID(rng.Intn(2))
	}
	for i := 0; n > 0 && i < rng.Intn(3*n); i++ {
		g.AddEdge(dag.VertexID(rng.Intn(n)), dag.VertexID(rng.Intn(n)))
	}
	r := &run.Run{Spec: s, Graph: g, Origin: origin}
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
	cases = append(cases, tc{"empty run", &run.Run{Spec: paper, Graph: dag.New(0)}, nil, ""})
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
