// Quickstart: build the paper's running example specification, generate a
// run, label it with the skeleton-based scheme, answer the three
// provenance queries from the paper's introduction, and finally serve the
// labeled run over HTTP the way a production deployment would — including
// the write path: a second run is ingested over the wire with
// PUT /runs/{name} and queried immediately.
//
// The serving section uses an in-memory store backend; the same code
// works over any backend the store package ships. In production you pick
// the substrate with a store URL:
//
//	provserve -store ./provstore              # one directory
//	provserve -store 'mem://./provstore'      # preloaded into RAM
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"

	"repro"
)

func main() {
	// The Figure-2 specification: two branches between source a and sink
	// h, a fork around {b, c} with a nested loop, and a loop over
	// {e, f, g} with a nested fork around f.
	b := repro.NewSpecBuilder()
	b.Chain("a", "b", "c", "h")
	b.Chain("a", "d", "e", "f", "g", "h")
	b.Fork("a", "h", "b", "c")
	b.Loop("b", "c")
	b.Loop("e", "g", "f")
	b.Fork("e", "g", "f")
	s, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("specification: %d modules, %d channels, %d forks/loops, hierarchy depth %d\n",
		s.NumVertices(), s.NumEdges(), len(s.Subgraphs), s.Hier.MaxDepth)

	// A run with roughly 2000 module executions: forks execute in
	// parallel, loops iterate, exactly as Definition 6 prescribes.
	r, _ := repro.GenerateRun(s, rand.New(rand.NewSource(42)), 2000)
	fmt.Printf("run: %d module executions, %d data channels\n", r.NumVertices(), r.NumEdges())

	// Label the run. The specification gets transitive-closure skeleton
	// labels; the run gets three-order context positions on top.
	l, err := repro.LabelRun(r, repro.TCM)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("labels: max %d bits, avg %.1f bits (3*log2(%d) = %.1f)\n\n",
		l.MaxLabelBits(), l.AvgLabelBits(), r.NumVertices(),
		3*log2(r.NumVertices()))

	// The introduction's three queries, replayed on the paper's exact
	// Figure 3 run so the occurrence names line up with the figure.
	fr, _ := repro.PaperRun(s)
	fl, err := repro.LabelRun(fr, repro.TCM)
	if err != nil {
		log.Fatal(err)
	}
	queries := []struct {
		from, to string
		why      string
	}{
		{"b1", "c3", "parallel fork copies"},
		{"c1", "b2", "successive loop iterations"},
		{"b1", "c1", "same copy, decided by the skeleton labels"},
	}
	nm := repro.NewNamer(fr)
	for _, q := range queries {
		u, v := mustVertex(nm, q.from), mustVertex(nm, q.to)
		byContext := ""
		if fl.AnsweredByContext(u, v) {
			byContext = ", answered by context encoding alone"
		}
		fmt.Printf("does %s depend on %s? %v (%s%s)\n", q.to, q.from, fl.Reachable(u, v), q.why, byContext)
	}

	// Persist the labeled run and serve it. In production this is
	// `provserve -store <url>` over an fs store; here an in-memory store
	// backend keeps the demo self-contained and the server runs
	// in-process on an ephemeral port, answering one query before
	// exiting. Swapping backends is one line: CreateStore(dir,...) for a
	// directory.
	st, err := repro.NewMemStore(s, "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	if err := st.PutRun("figure3", fr, nil, repro.TCM); err != nil {
		log.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{Store: st, EnableIngest: true})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go http.Serve(ln, srv)
	url := fmt.Sprintf("http://%s/reachable?run=figure3&from=b1&to=c3", ln.Addr())
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGET %s\n%s", url, answer)

	// The write path: ingest the 2000-execution run over HTTP (the body
	// is the run's XML document) and query it immediately — this is how
	// a mem-backed provserve is populated remotely (`provserve -ingest`;
	// `provquery -put` is the command-line client).
	var doc bytes.Buffer
	if err := repro.WriteRunXML(&doc, r, nil, "quickstart"); err != nil {
		log.Fatal(err)
	}
	putURL := fmt.Sprintf("http://%s/runs/r2000", ln.Addr())
	req, err := http.NewRequest(http.MethodPut, putURL, &doc)
	if err != nil {
		log.Fatal(err)
	}
	putResp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	stored, err := io.ReadAll(putResp.Body)
	putResp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPUT %s\n%s", putURL, stored)
	url = fmt.Sprintf("http://%s/reachable?run=r2000&from=0&to=%d", ln.Addr(), r.NumVertices()-1)
	resp, err = http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	answer, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGET %s\n%s", url, answer)

	// The lifecycle's exit path: DELETE retires a stored run — blobs,
	// labels and cached session together — and the very next query for
	// it answers 404. In production this is how retention runs against a
	// live server: one-off with `provquery -delete <url> -run <name>`,
	// or automatically with `provserve -ingest -max-runs N`, which
	// deletes least-recently-used runs after each ingest so a long-lived
	// server holds a bounded working set.
	delURL := fmt.Sprintf("http://%s/runs/r2000", ln.Addr())
	req, err = http.NewRequest(http.MethodDelete, delURL, nil)
	if err != nil {
		log.Fatal(err)
	}
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	gone, err := io.ReadAll(delResp.Body)
	delResp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDELETE %s\n%s", delURL, gone)
	resp, err = http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	answer, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGET %s (after delete)\nstatus %d: %s", url, resp.StatusCode, answer)
}

func mustVertex(nm *repro.Namer, name string) repro.VertexID {
	v, ok := nm.Vertex(name)
	if !ok {
		log.Fatalf("vertex %s not found", name)
	}
	return v
}

func log2(n int) float64 {
	b := 0.0
	for x := 1; x < n; x *= 2 {
		b++
	}
	return b
}
