package server

import (
	"bytes"
	"io"
	"maps"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/xmlio"
	"repro/internal/xmlio/xmliotest"
)

// FuzzIngestRun throws hostile bodies at the write path: whatever the
// bytes, PUT /runs/{name} must answer 200 (stored), 4xx (rejected) or
// 413 (too large) — never 5xx, never a panic, and never unbounded
// allocation (the body cap is set low so the fuzzer can cross it). A
// 200 must really mean stored: the run must be listed and queryable
// afterwards, the stored document must be the body itself, and that
// document must say what the run's canonical encoding says — decoding
// the stored bytes and decoding EncodeRun of the run they hold give the
// same graph, origins and data items.
func FuzzIngestRun(f *testing.F) {
	sp := spec.PaperSpec()
	// Seeds from the xmlio corpus: a real generated run (with data
	// items), the paper's Figure 3 run, and structurally hostile
	// variants — truncation, huge ids, wrong root, entity tricks.
	rng := rand.New(rand.NewSource(42))
	r, _ := run.GenerateSized(sp, rng, 90)
	ann := provdata.RandomItems(r, rng, 1.0, 0.3)
	var genDoc bytes.Buffer
	if err := xmlio.EncodeRun(&genDoc, r, ann, "paper"); err != nil {
		f.Fatal(err)
	}
	fig3, _ := run.Figure3Run(sp)
	var figDoc bytes.Buffer
	if err := xmlio.EncodeRun(&figDoc, fig3, nil, "paper"); err != nil {
		f.Fatal(err)
	}
	f.Add(genDoc.String())
	f.Add(figDoc.String())
	f.Add(genDoc.String()[:genDoc.Len()/2])
	f.Add("<?xml version='1.0'?><!-- stored as sent -->" + strings.ReplaceAll(figDoc.String(), `"`, `'`))
	f.Add(`<run><vertices><vertex id="0" module="a"/></vertices><edges/></run>`)
	f.Add(`<run><vertices><vertex id="4294967295" module="a"/></vertices><edges/></run>`)
	f.Add(`<run><vertices><vertex id="0" module="a"/></vertices><edges><edge from="0" to="999999999"/></edges></run>`)
	f.Add(`<workflow>not a run</workflow>`)
	f.Add(`<run>` + strings.Repeat(`<vertices>`, 200))
	f.Add(`<?xml version="1.0"?><!DOCTYPE run [<!ENTITY a "aaaa">]><run>&a;</run>`)
	f.Add("")
	// Near-canonical variants, each leaving the decoder's one-step
	// element match for its general tokenizer at a different byte.
	for _, doc := range []string{genDoc.String(), figDoc.String()} {
		seeds := xmliotest.NearCanonical(doc)
		for _, name := range slices.Sorted(maps.Keys(seeds)) {
			f.Add(seeds[name])
		}
	}

	st, err := store.NewMem(sp, "paper")
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Store: st, EnableIngest: true, MaxIngestBytes: 1 << 18})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("PUT", "/runs/fz", strings.NewReader(body)))
		switch {
		case rec.Code >= 500:
			t.Fatalf("ingest answered %d for a client-supplied body: %s", rec.Code, rec.Body.String())
		case rec.Code == 200:
			// An accepted run must actually serve.
			qr := httptest.NewRecorder()
			s.ServeHTTP(qr, httptest.NewRequest("GET", "/runs?run=fz", nil))
			if qr.Code != 200 {
				t.Fatalf("ingest accepted a run that does not serve: %d %s", qr.Code, qr.Body.String())
			}
			checkStoredIsBody(t, st, body)
		}
	})
}

// checkStoredIsBody checks the document stored for an accepted PUT of
// body: it is the body, byte for byte, and it decodes to what the
// canonical encoding of its own run decodes to.
func checkStoredIsBody(t *testing.T, st *store.Store, body string) {
	t.Helper()
	rc, err := st.Backend().ReadRun("fz")
	if err != nil {
		t.Fatal(err)
	}
	stored, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if string(stored) != body {
		t.Fatalf("stored document is not the body: stored %q, body %q", stored, body)
	}
	r, ann, err := xmlio.DecodeRunBytes(stored, st.Spec())
	if err != nil {
		t.Fatalf("stored document does not decode: %v", err)
	}
	var canonical bytes.Buffer
	if err := xmlio.EncodeRun(&canonical, r, ann, st.SpecName()); err != nil {
		t.Fatal(err)
	}
	cr, cann, err := xmlio.DecodeRun(&canonical, st.Spec())
	if err != nil {
		t.Fatalf("canonical encoding of the stored run does not decode: %v", err)
	}
	if got, want := runContent(r, ann), runContent(cr, cann); got != want {
		t.Fatalf("stored document says\n%s\nits canonical encoding says\n%s", got, want)
	}
}
