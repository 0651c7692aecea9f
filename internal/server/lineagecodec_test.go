package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/lineage"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// oldLineageBody is the /lineage response as encoding/json wrote it
// before the append encoder: the contract appendLineageResponse keeps.
func oldLineageBody(t *testing.T, runName, ref, dir string, names []string) []byte {
	t.Helper()
	if names == nil {
		names = []string{}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{
		"run":       runName,
		"vertex":    ref,
		"direction": dir,
		"count":     len(names),
		"cone":      names,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLineageByteIdentical serves every cone of a run whose module names
// need JSON escaping — quote, backslash, HTML bytes, non-ASCII, U+2028,
// a control byte, invalid UTF-8 — and compares each response with
// encoding/json's, byte for byte. Sources are named by ID and by their
// escaped names, so the vertex-ref echo is checked too; cone members
// come from a graph traversal, not from the labels.
func TestLineageByteIdentical(t *testing.T) {
	b := spec.NewBuilder()
	b.Chain(`q"uote`, `back\slash`, "<tag", "bad\xffutf8", "end")
	b.Chain(`q"uote`, "a&b", "héllo", "line\u2028sep", "ctl\x01", "x>y", "del\x7f", "end")
	b.Fork(`q"uote`, "end", `back\slash`, "<tag", "bad\xffutf8")
	b.Loop(`back\slash`, "<tag")
	b.Loop("héllo", "ctl\x01", "line\u2028sep")
	b.Fork("héllo", "ctl\x01", "line\u2028sep")
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.NewMem(s, "escapes")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(17)), 120)
	if err := st.PutRun("w", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, st, 4, 100)
	empty := 0
	for v := 0; v < r.NumVertices(); v++ {
		vid := dag.VertexID(v)
		refs := []string{fmt.Sprint(v), r.NameOf(vid)}
		if v%7 == 0 {
			refs = append(refs, fmt.Sprintf("+%03d", v))
		}
		for _, dir := range []string{"up", "down"} {
			cone := lineage.Upstream(r, vid)
			if dir == "down" {
				cone = lineage.Downstream(r, vid)
			}
			slices.Sort(cone)
			var names []string
			for _, u := range cone {
				names = append(names, r.NameOf(u))
			}
			if len(names) == 0 {
				empty++
			}
			for _, ref := range refs {
				target := "/lineage?" + url.Values{"run": {"w"}, "vertex": {ref}, "dir": {dir}}.Encode()
				rec := do(t, srv, "GET", target, "", nil)
				want := oldLineageBody(t, "w", ref, dir, names)
				if rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
					t.Fatalf("GET %s: status %d\n got %q\nwant %q", target, rec.Code, rec.Body.Bytes(), want)
				}
			}
		}
	}
	if empty == 0 {
		t.Fatal("no empty cone was served")
	}
	// Refs that resolve to no vertex never reach the encoder, so the
	// echo of arbitrary text is pinned on the encoder directly.
	for _, ref := range []string{"", "plain", `"`, `\`, "<", ">", "&", "\x00", "\x1f", "\x7f", "é", "\u2028", "\u2029", "\xff", "a\tb\nc\rd\be\ff"} {
		got := appendLineageResponse(nil, nil, nil, "up", "w", ref)
		if want := oldLineageBody(t, "w", ref, "up", nil); !bytes.Equal(got, want) {
			t.Fatalf("ref %q:\n got %q\nwant %q", ref, got, want)
		}
	}
}

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

// discardWriter is a ResponseWriter whose body buffer cannot grow, so
// the allocations counted below are the handler's alone.
type discardWriter struct{ h http.Header }

func (w discardWriter) Header() http.Header       { return w.h }
func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (discardWriter) WriteHeader(int)             {}

// TestLineageAllocsFlat pins the pooled /lineage path: once warm, a
// request allocates the same whether its cone is empty or most of the
// run.
func TestLineageAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	s := spec.PaperSpec()
	st, err := store.NewMem(s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(4)), 2000)
	if err := st.PutRun("r", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, st, 4, 100)
	allocs := func(target string) float64 {
		req := httptest.NewRequest("GET", target, nil)
		w := discardWriter{h: make(http.Header)}
		return testing.AllocsPerRun(50, func() {
			clear(w.h)
			srv.ServeHTTP(w, req)
		})
	}
	// Sources of the smallest and largest upstream cones.
	small, large := 0, 0
	sizes := make([]int, r.NumVertices())
	for v := range sizes {
		sizes[v] = len(lineage.Upstream(r, dag.VertexID(v)))
		if sizes[v] < sizes[small] {
			small = v
		}
		if sizes[v] > sizes[large] {
			large = v
		}
	}
	empty := fmt.Sprintf("/lineage?run=r&vertex=%d&dir=up", small)
	big := fmt.Sprintf("/lineage?run=r&vertex=%d&dir=up", large)
	allocs(big) // grow the pooled buffers
	if a, b := allocs(empty), allocs(big); b > a {
		t.Fatalf("allocs grow with the cone: %v for %d vertices, %v for %d", a, sizes[small], b, sizes[large])
	}
}
