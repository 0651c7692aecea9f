package server

import (
	"math/rand"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// FuzzDeleteRun throws hostile run names at the deletion path: whatever
// the name, DELETE /runs/{name} must answer 200 (really deleted), 404
// (no such run or unroutable path) or 400 (invalid name) — never 5xx,
// never a panic — and a read-only server must answer 403 before looking
// at the name at all. A 200 must really mean deleted: the run must be
// unknown to the query path afterwards. The FuzzIngestRun of the exit
// path.
func FuzzDeleteRun(f *testing.F) {
	f.Add("r1")
	f.Add("seeded")
	f.Add("absent")
	f.Add("..")
	f.Add("../../etc/passwd")
	f.Add(".ckpt-alpha")
	f.Add(".")
	f.Add("")
	f.Add("a/b")
	f.Add("a b")
	f.Add(strings.Repeat("x", 4096))
	f.Add("run\x00name")
	f.Add("run%2Fname")
	f.Add("ünïcode")

	sp := spec.PaperSpec()
	st, err := store.NewMem(sp, "paper")
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{Store: st, EnableIngest: true})
	if err != nil {
		f.Fatal(err)
	}
	ro, err := New(Config{Store: st})
	if err != nil {
		f.Fatal(err)
	}
	// One stored run the fuzzer may legitimately delete ("seeded" is a
	// corpus entry), re-seeded whenever an input lands its 200.
	seed, _ := run.GenerateSized(sp, rand.New(rand.NewSource(13)), 50)
	doc := encodeRun(f, seed, nil)
	reseed := func(tb testing.TB) {
		tb.Helper()
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("PUT", "/runs/seeded", strings.NewReader(doc)))
		if rec.Code != 200 {
			tb.Fatalf("re-seeding: %d %s", rec.Code, rec.Body.String())
		}
	}
	reseed(f)

	f.Fuzz(func(t *testing.T, name string) {
		target := "/runs/" + url.PathEscape(name)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("DELETE", target, nil))
		switch {
		case rec.Code >= 500:
			t.Fatalf("DELETE %q answered %d: %s", name, rec.Code, rec.Body.String())
		case rec.Code == 200:
			// Deleted for real: the query path must agree, then restore
			// the store for the next input.
			qr := httptest.NewRecorder()
			s.ServeHTTP(qr, httptest.NewRequest("GET", "/runs?run="+url.QueryEscape(name), nil))
			if qr.Code != 404 {
				t.Fatalf("DELETE %q answered 200 but the run still serves: %d", name, qr.Code)
			}
			if name == "seeded" {
				reseed(t)
			}
		}
		// The read-only server refuses every deletion identically.
		rr := httptest.NewRecorder()
		ro.ServeHTTP(rr, httptest.NewRequest("DELETE", target, nil))
		if rr.Code != 403 && rr.Code != 404 && rr.Code != 301 {
			// 404 only for paths the mux cannot route to the handler at
			// all (an empty name segment), 301 for paths it redirects to
			// their cleaned form ("." / ".." segments); anything that
			// reaches the handler must be the flat 403.
			t.Fatalf("read-only DELETE %q = %d, want 403 (or unroutable 404/301)", name, rr.Code)
		}
	})
}
