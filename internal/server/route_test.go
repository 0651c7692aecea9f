package server

import (
	"fmt"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// serveViaMux is ServeHTTP with every request routed by the mux: the
// same admission and "other" count, without the exact-path lookup.
func serveViaMux(s *Server, w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/healthz" {
		release, ok := s.adm.admit(w, r)
		if !ok {
			return
		}
		defer release()
	}
	s.mux.ServeHTTP(w, r)
	if r.Pattern == "" {
		s.other.Add(1)
	}
}

// TestExactRoutesMatchMux holds ServeHTTP's exact-path lookup to the
// mux it short-cuts. Two servers over identical stores take the same
// requests, one through ServeHTTP and one routed by the mux alone; each
// answer must agree in status, body, Allow and Content-Type headers and
// the request's Pattern, and the served counters (with "other") must
// agree after every request.
func TestExactRoutesMatchMux(t *testing.T) {
	newServer := func() *Server {
		st, err := store.NewMem(spec.PaperSpec(), "paper")
		if err != nil {
			t.Fatal(err)
		}
		r, _ := run.GenerateSized(spec.PaperSpec(), rand.New(rand.NewSource(5)), 40)
		if err := st.PutRun("r", r, nil, label.TCM{}); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Store: st, EnableIngest: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	exact, viaMux := newServer(), newServer()

	type request struct{ method, target, body string }
	var cases []request
	targets := map[string]string{
		"/healthz":   "",
		"/specs":     "",
		"/runs":      "?run=r",
		"/reachable": "?run=r&from=0&to=3",
		"/batch":     "",
		"/lineage":   "?run=r&vertex=2&dir=down",
		"/rpq":       "",
	}
	bodies := map[string]string{
		"/batch": `{"run":"r","pairs":[["0","3"],[3,0]]}`,
		"/rpq":   `{"run":"r","from":"0","to":"3","pattern":".*"}`,
	}
	for i := range exact.routes {
		pattern := exact.routes[i].pattern
		if exact.exact[pattern] == nil {
			continue
		}
		for _, m := range []string{"GET", "HEAD", "POST", "PUT", "CONNECT"} {
			cases = append(cases, request{m, pattern + targets[pattern], bodies[pattern]})
		}
	}
	if len(cases) != 5*len(targets) {
		t.Fatalf("%d exact routes, want the %d of %v", len(cases)/5, len(targets), targets)
	}
	for _, target := range []string{"//reachable?run=r&from=0&to=3", "/reachable/", "/reach%61ble?run=r&from=0&to=3", "/nope"} {
		cases = append(cases, request{"GET", target, ""})
	}
	for _, m := range []string{"GET", "HEAD", "POST", "PUT", "DELETE", "PATCH", "OPTIONS", "CONNECT"} {
		cases = append(cases, request{m, "/runs/x", ""})
	}

	send := func(serve func(http.ResponseWriter, *http.Request), c request) (*httptest.ResponseRecorder, string) {
		req := httptest.NewRequest(c.method, c.target, strings.NewReader(c.body))
		rec := httptest.NewRecorder()
		serve(rec, req)
		return rec, req.Pattern
	}
	answered := 0
	for i, c := range cases {
		name := fmt.Sprintf("%s %s", c.method, c.target)
		got, gotPattern := send(exact.ServeHTTP, c)
		if i < 5*len(targets) && got.Code == http.StatusOK {
			answered++
		}
		want, wantPattern := send(func(w http.ResponseWriter, r *http.Request) { serveViaMux(viaMux, w, r) }, c)
		if got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Errorf("%s: lookup %d %q, mux %d %q", name, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
		if gotPattern != wantPattern {
			t.Errorf("%s: r.Pattern %q, mux %q", name, gotPattern, wantPattern)
		}
		if g, w := got.Header().Values("Allow"), want.Header().Values("Allow"); fmt.Sprint(g) != fmt.Sprint(w) {
			t.Errorf("%s: Allow %q, mux %q", name, g, w)
		}
		if g, w := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); g != w {
			t.Errorf("%s: Content-Type %q, mux %q", name, g, w)
		}
		if g, w := exact.Served(), viaMux.Served(); !maps.Equal(g, w) {
			t.Fatalf("%s: served %v, mux %v", name, g, w)
		}
	}
	if answered != len(targets) {
		t.Fatalf("%d exact-route requests answered 200, want one per route (%d)", answered, len(targets))
	}
}

// TestJSONContentTypeShared pins that the Content-Type value every JSON
// response shares cannot be written through: adding to it regrows the
// slice and setting it replaces the slice.
func TestJSONContentTypeShared(t *testing.T) {
	if len(jsonContentType) != cap(jsonContentType) {
		t.Fatalf("jsonContentType has len %d, cap %d: Header.Add would write into the shared array", len(jsonContentType), cap(jsonContentType))
	}
	for _, mutate := range []func(http.Header){
		func(h http.Header) { h.Add("Content-Type", "text/plain") },
		func(h http.Header) { h.Set("Content-Type", "text/plain") },
	} {
		rec := httptest.NewRecorder()
		respond().str("k", "v").send(rec, http.StatusOK)
		mutate(rec.Header())
		if fmt.Sprint(jsonContentType) != "[application/json]" {
			t.Fatalf("shared Content-Type value changed to %q", jsonContentType)
		}
	}
}
