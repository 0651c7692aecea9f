package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// parseOK parses body into a fresh scratch, failing the test on error.
func parseOK(t *testing.T, body string, maxPairs int) *batchScratch {
	t.Helper()
	sc := getBatchScratch()
	t.Cleanup(sc.release)
	if err := parseBatchRequest([]byte(body), sc, maxPairs); err != nil {
		t.Fatalf("parse %q: %v", body, err)
	}
	return sc
}

func TestParseBatchRequestForms(t *testing.T) {
	cases := []struct {
		body string
		run  string
		want [][2]string // expected raw ref texts
	}{
		{`{"run":"r1","pairs":[["b1","c3"]]}`, "r1", [][2]string{{"b1", "c3"}}},
		{`{"run":"r1","pairs":[[12,34]]}`, "r1", [][2]string{{"12", "34"}}},
		{`{"run":"r1","pairs":[["12",34],[7,"c3"]]}`, "r1", [][2]string{{"12", "34"}, {"7", "c3"}}},
		{`{"pairs":[],"run":"r2"}`, "r2", nil},
		{` { "run" : "r1" , "pairs" : [ [ "a1" , 0 ] ] } `, "r1", [][2]string{{"a1", "0"}}},
		// Key order flipped: pairs before run.
		{`{"pairs":[["a1","b1"]],"run":"r9"}`, "r9", [][2]string{{"a1", "b1"}}},
		// Unknown keys (scalar, nested object, nested array) are skipped.
		{`{"run":"r1","debug":true,"opts":{"a":[1,{"b":null}],"s":"x,][}"},"n":-1.5e3,"pairs":[["a1","b2"]]}`,
			"r1", [][2]string{{"a1", "b2"}}},
		// Escapes decode: "b2" is "b2", "a\n" holds a newline.
		{`{"run":"r1","pairs":[["b2","a\n"]]}`, "r1", [][2]string{{"b2", "a\n"}}},
		// Unicode escapes decode, including a surrogate pair.
		{`{"run":"r\u0031","pairs":[["\ud83d\ude00","b1"]]}`, "r1", [][2]string{{"\U0001F600", "b1"}}},
		// A lone surrogate is U+FFFD, and an escape after it that does
		// not complete a pair stands on its own.
		{`{"run":"r","pairs":[["\ud800\u0041","\udc00x"]]}`, "r", [][2]string{{"\uFFFDA", "\uFFFDx"}}},
	}
	for _, c := range cases {
		sc := parseOK(t, c.body, 100)
		if string(sc.run) != c.run {
			t.Errorf("%s: run = %q, want %q", c.body, sc.run, c.run)
		}
		if len(sc.tokens) != len(c.want) {
			t.Fatalf("%s: %d pairs, want %d", c.body, len(sc.tokens), len(c.want))
		}
		for i, w := range c.want {
			if string(sc.tokens[i][0].raw) != w[0] || string(sc.tokens[i][1].raw) != w[1] {
				t.Errorf("%s: pair %d = (%q,%q), want (%q,%q)", c.body, i,
					sc.tokens[i][0].raw, sc.tokens[i][1].raw, w[0], w[1])
			}
		}
	}
}

func TestParseBatchRequestNumericTokens(t *testing.T) {
	sc := parseOK(t, `{"run":"r","pairs":[[5,"7"]]}`, 10)
	if sc.tokens[0][0].id != 5 {
		t.Errorf("numeric element id = %d, want 5", sc.tokens[0][0].id)
	}
	if sc.tokens[0][1].id != -1 {
		t.Errorf("string element id = %d, want -1", sc.tokens[0][1].id)
	}
	// A numeric ID beyond int32 range parses but resolves to no vertex.
	sc2 := parseOK(t, `{"run":"r","pairs":[[99999999999999999999,1]]}`, 10)
	if sc2.tokens[0][0].id != math.MaxInt32 {
		t.Errorf("overflowed id = %d, want clamped out of VertexID range", sc2.tokens[0][0].id)
	}
}

// TestParseBatchRequestDuplicateKeys pins encoding/json's last-key-wins
// semantics for repeated keys.
func TestParseBatchRequestDuplicateKeys(t *testing.T) {
	sc := parseOK(t, `{"run":"a","pairs":[[1,2]],"run":"b","pairs":[[3,4],[5,6]]}`, 10)
	if string(sc.run) != "b" {
		t.Errorf("run = %q, want last value %q", sc.run, "b")
	}
	if len(sc.tokens) != 2 || string(sc.tokens[0][0].raw) != "3" {
		t.Errorf("tokens = %d pairs starting %q, want the last pairs value", len(sc.tokens), sc.tokens[0][0].raw)
	}
}

func TestParseBatchRequestErrors(t *testing.T) {
	bad := []string{
		``,
		`{`,
		`[1,2]`,
		`{"run":1,"pairs":[]}`,                 // run must be a string
		`{"run":"r","pairs":{"a":1}}`,          // pairs must be an array
		`{"run":"r","pairs":[["a"]]}`,          // one-element pair
		`{"run":"r","pairs":[["a","b","c"]]}`,  // three-element pair
		`{"run":"r","pairs":[[null,"b"]]}`,     // null element
		`{"run":"r","pairs":[[true,1]]}`,       // bool element
		`{"run":"r","pairs":[[-1,2]]}`,         // negative ID
		`{"run":"r","pairs":[[1.5,2]]}`,        // fractional ID
		`{"run":"r","pairs":[[1e3,2]]}`,        // exponent ID
		`{"run":"r","pairs":[["a","b"]]}extra`, // trailing garbage
		`{"run":"r" "pairs":[]}`,               // missing comma
		`{"run":"\uZZZZ","pairs":[]}`,          // bad \u escape
		`{"run":"r","pairs":[["a","b"]]`,       // unterminated
		`{"x":-,"run":"r","pairs":[[0,1]]}`,    // bare minus in skipped number
		`{"x":"\q","run":"r","pairs":[[0,1]]}`, // bad escape in skipped string
		strings.Repeat(`{"x":`, 100) + `1` + strings.Repeat(`}`, 100), // deep nesting in a skipped key
		// Numbers outside the JSON grammar, as a pair element or in a
		// skipped key.
		`{"run":"r","pairs":[[01,2]]}`,
		`{"run":"r","pairs":[[1,2]],"n":01}`,
		`{"run":"r","pairs":[[1,2]],"n":1.2.3}`,
		`{"run":"r","pairs":[[1,2]],"n":1e}`,
		`{"run":"r","pairs":[[1,2]],"n":--1}`,
		`{"run":"r","pairs":[[1,2]],"n":1-}`,
		`{"run":"r","pairs":[[1,2]],"n":1.}`,
	}
	for _, body := range bad {
		sc := getBatchScratch()
		err := parseBatchRequest([]byte(body), sc, 100)
		sc.release()
		if err == nil {
			t.Errorf("parse %q: accepted malformed body", body)
		} else if errors.Is(err, errBatchTooLarge) {
			t.Errorf("parse %q: reported too-large instead of syntax error", body)
		}
	}
}

func TestParseBatchRequestTooLarge(t *testing.T) {
	sc := getBatchScratch()
	defer sc.release()
	err := parseBatchRequest([]byte(`{"run":"r","pairs":[[1,2],[3,4],[5,6]]}`), sc, 2)
	if !errors.Is(err, errBatchTooLarge) {
		t.Fatalf("err = %v, want errBatchTooLarge", err)
	}
}

// TestBatchScratchReuse pins pooling behavior: a scratch reused across
// requests must not leak state from the previous request.
func TestBatchScratchReuse(t *testing.T) {
	sc := getBatchScratch()
	if err := parseBatchRequest([]byte(`{"run":"first","pairs":[[1,2],[3,4]]}`), sc, 10); err != nil {
		t.Fatal(err)
	}
	sc.results = append(sc.results, true, true)
	sc.release()

	sc2 := getBatchScratch()
	defer sc2.release()
	if len(sc2.tokens) != 0 || len(sc2.results) != 0 || sc2.run != nil {
		t.Fatalf("reused scratch carries state: %d tokens, %d results", len(sc2.tokens), len(sc2.results))
	}
	if err := parseBatchRequest([]byte(`{"run":"second","pairs":[["a1","b1"]]}`), sc2, 10); err != nil {
		t.Fatal(err)
	}
	if string(sc2.run) != "second" || len(sc2.tokens) != 1 {
		t.Fatalf("second parse: run=%q tokens=%d", sc2.run, len(sc2.tokens))
	}
}

// oldBatchBody is the /batch response as encoding/json wrote it from
// the struct the response writer replaced.
func oldBatchBody(t *testing.T, run string, results []bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(struct {
		Run     string `json:"run"`
		Count   int    `json:"count"`
		Results []bool `json:"results"`
	}{run, len(results), results}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchByteIdentical serves batches from empty to past the parallel
// evaluation threshold and compares each /batch body with the old
// struct encoder's, byte for byte: valid JSON, the trailing newline and
// "results":[] for an empty batch.
func TestBatchByteIdentical(t *testing.T) {
	s := spec.PaperSpec()
	st, err := store.NewMem(s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(3)), 300)
	names := []string{"my-run.1", "R_2", "x"}
	for _, name := range names {
		if err := st.PutRun(name, r, nil, label.TCM{}); err != nil {
			t.Fatal(err)
		}
	}
	sess, err := st.OpenRun("x", label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, st, 4, 2000)
	rng := rand.New(rand.NewSource(5))
	for _, name := range names {
		for _, n := range []int{0, 1, 2, 64, 1500} {
			results := []bool{}
			var pairs []string
			for i := 0; i < n; i++ {
				u, v := rng.Intn(r.NumVertices()), rng.Intn(r.NumVertices())
				pairs = append(pairs, fmt.Sprintf("[%d,%d]", u, v))
				results = append(results, sess.Labels.Reachable(dag.VertexID(u), dag.VertexID(v)))
			}
			body := fmt.Sprintf(`{"run":%q,"pairs":[%s]}`, name, strings.Join(pairs, ","))
			rec := do(t, srv, "POST", "/batch", body, nil)
			if want := oldBatchBody(t, name, results); rec.Code != 200 || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("run %q, %d pairs: status %d\n got %q\nwant %q", name, n, rec.Code, rec.Body.Bytes(), want)
			}
		}
	}
}

// FuzzBatchRequestOracle checks the /batch decoder against
// encoding/json: a body parseBatchRequest accepts is valid JSON, and
// its run and pair texts are what encoding/json decodes into the old
// request struct, its pair elements widened from strings to strings or
// numbers. Bodies in the decoder's two documented divergences (keys
// that only case-folding matches, invalid UTF-8) are skipped.
func FuzzBatchRequestOracle(f *testing.F) {
	for _, body := range []string{
		`{"run":"r1","pairs":[["b1","c3"],[12,34],["12",7]]}`,
		`{"pairs":[],"run":"r2"}`,
		` { "run" : "r1" , "pairs" : [ [ "a1" , 0 ] ] } `,
		`{"run":"r1","debug":true,"opts":{"a":[1,{"b":null}],"s":"x,][}"},"n":-1.5e3,"pairs":[["a1","b2"]]}`,
		`{"run":"r\u0031","pairs":[["\ud83d\ude00","b\n1"],["\ud800\u0041","\udc00"]]}`,
		`{"run":"a","pairs":[[1,2]],"run":"b","pairs":[[3,4],[5,6]]}`,
		`{"run":"r","pairs":[[99999999999999999999,0]],"n":[0,-0,0.5,1E+2,2e-3]}`,
		`{"run":"r","pairs":[[01,2]]}`,
		`{"run":"r","pairs":[[1,2]],"n":1.2.3}`,
		`{"RUN":"r","Pairs":[[1,2]]}`,
		"{\"run\":\"r\xff\",\"pairs\":[]}",
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		sc := getBatchScratch()
		defer sc.release()
		if parseBatchRequest([]byte(body), sc, 1<<20) != nil {
			return
		}
		if !json.Valid([]byte(body)) {
			t.Fatalf("accepted invalid JSON %q", body)
		}
		if !utf8.ValidString(body) || hasFoldedKey(t, body, "run", "pairs") {
			return
		}
		var req struct {
			Run   string   `json:"run"`
			Pairs [][2]any `json:"pairs"`
		}
		dec := json.NewDecoder(strings.NewReader(body))
		dec.UseNumber()
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("accepted %q, encoding/json: %v", body, err)
		}
		if string(sc.run) != req.Run || len(sc.tokens) != len(req.Pairs) {
			t.Fatalf("%q: run %q with %d pairs, encoding/json %q with %d", body, sc.run, len(sc.tokens), req.Run, len(req.Pairs))
		}
		for i, pair := range req.Pairs {
			for k, e := range pair {
				tok := sc.tokens[i][k]
				text, _ := e.(string)
				n, numeric := e.(json.Number)
				if numeric {
					text = n.String()
				}
				if string(tok.raw) != text || (tok.id >= 0) != numeric {
					t.Fatalf("%q: pair %d element %d = %q (id %d), encoding/json %#v", body, i, k, tok.raw, tok.id, e)
				}
			}
		}
	})
}

// hasFoldedKey reports whether the object body has a top-level key that
// encoding/json matches to one of fields only by case-folding.
func hasFoldedKey(t *testing.T, body string, fields ...string) bool {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		for _, f := range fields {
			if k != f && strings.EqualFold(k, f) {
				return true
			}
		}
	}
	return false
}

// FuzzRPQRequestOracle holds the /rpq body decoder to encoding/json: a
// body it accepts is valid JSON, and its four fields are what
// encoding/json decodes into the struct the handler used to unmarshal
// (the documented divergences aside: exact key match, raw invalid UTF-8
// kept).
func FuzzRPQRequestOracle(f *testing.F) {
	for _, body := range []string{
		`{"run":"r1","from":"b1","to":"c3","pattern":".*"}`,
		`{"pattern":"(a|b)* d","to":"7","from":"0","run":"r2"}`,
		` { "run" : "r1" , "from" : "0" , "to" : "1" , "pattern" : "()" } `,
		`{"run":"r1","debug":true,"opts":{"a":[1,{"b":null}],"s":"x,][}"},"n":-1.5e3,"from":"a1","to":"b2","pattern":"."}`,
		`{"run":"r\u0031","from":"\ud83d\ude00","to":"b\n1","pattern":"\ud800\u0041"}`,
		`{"run":"a","from":"1","run":"b","from":"2","to":"3","pattern":"x"}`,
		`{"run":"r","from":null,"to":"1","pattern":"."}`,
		`{"run":"r","from":0,"to":"1","pattern":"."}`,
		`{"run":"r","pattern":"."}`,
		`{"RUN":"r","From":"0","TO":"1","Pattern":"."}`,
		"{\"run\":\"r\xff\",\"from\":\"0\",\"to\":\"1\",\"pattern\":\".\"}",
		`{"run":"r","from":"0","to":"1","pattern":"."} x`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		sc := getBatchScratch()
		defer sc.release()
		if parseRPQRequest([]byte(body), sc) != nil {
			return
		}
		if !json.Valid([]byte(body)) {
			t.Fatalf("accepted invalid JSON %q", body)
		}
		if !utf8.ValidString(body) || hasFoldedKey(t, body, "run", "from", "to", "pattern") {
			return
		}
		var req struct {
			Run     string `json:"run"`
			From    string `json:"from"`
			To      string `json:"to"`
			Pattern string `json:"pattern"`
		}
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("accepted %q, encoding/json: %v", body, err)
		}
		got := [4]string{string(sc.run), string(sc.from), string(sc.to), string(sc.pattern)}
		if want := [4]string{req.Run, req.From, req.To, req.Pattern}; got != want {
			t.Fatalf("%q: decoded %q, encoding/json %q", body, got, want)
		}
	})
}
