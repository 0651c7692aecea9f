package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

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

// batchOracle decodes body as encoding/json decodes it into the /batch
// request: accepted iff encoding/json accepts it and every pair holds
// two elements, each a string or a JSON number that is a bare
// non-negative integer (kept as its text).
func batchOracle(body string) (run string, pairs [][]any, ok bool) {
	if !json.Valid([]byte(body)) {
		return "", nil, false
	}
	var req struct {
		Run   string  `json:"run"`
		Pairs [][]any `json:"pairs"`
	}
	dec := json.NewDecoder(strings.NewReader(body))
	dec.UseNumber()
	if dec.Decode(&req) != nil {
		return "", nil, false
	}
	for _, pair := range req.Pairs {
		if len(pair) != 2 {
			return "", nil, false
		}
		for _, e := range pair {
			switch e := e.(type) {
			case string:
			case json.Number:
				if strings.Trim(e.String(), "0123456789") != "" {
					return "", nil, false
				}
			default:
				return "", nil, false
			}
		}
	}
	return req.Run, req.Pairs, true
}

// checkBatch fails t unless sc holds run and pairs as batchOracle
// decoded them: string elements by their text, numbers by their digits
// and value (a value past 2^30 need only resolve to no vertex).
func checkBatch(t *testing.T, body string, sc *batchScratch, run string, pairs [][]any) {
	t.Helper()
	if string(sc.run) != run || len(sc.tokens) != len(pairs) {
		t.Fatalf("%q: run %q with %d pairs, encoding/json %q with %d", body, sc.run, len(sc.tokens), run, len(pairs))
	}
	for i, pair := range pairs {
		for k, e := range pair {
			tok := sc.tokens[i][k]
			text, ok := e.(string)
			if ok {
				ok = string(tok.raw) == text && tok.id == -1
			} else {
				text = e.(json.Number).String()
				v, err := strconv.ParseUint(text, 10, 64)
				ok = string(tok.raw) == text && tok.id >= 0 &&
					(err == nil && v < 1<<30 && tok.id == int(v) || (err != nil || v >= 1<<30) && tok.id >= 1<<30)
			}
			if !ok {
				t.Fatalf("%q: pair %d element %d = %q (id %d), encoding/json %#v", body, i, k, tok.raw, tok.id, e)
			}
		}
	}
}

// rpqOracle decodes body as encoding/json decodes it into the /rpq
// request.
func rpqOracle(body string) (fields [4]string, ok bool) {
	var req struct{ Run, From, To, Pattern string }
	if json.Unmarshal([]byte(body), &req) != nil {
		return fields, false
	}
	return [4]string{req.Run, req.From, req.To, req.Pattern}, true
}

func rpqFields(sc *batchScratch) [4]string {
	return [4]string{string(sc.run), string(sc.from), string(sc.to), string(sc.pattern)}
}

// TestMatchTakesMarshalLayout pins the split between the one-step
// matcher and encoding/json: every body an in-repo writer produces is
// matched, and each way off json.Marshal's layout is declined and then
// decoded as encoding/json decodes it.
func TestMatchTakesMarshalLayout(t *testing.T) {
	perfbench, err := json.Marshal(map[string]any{"run": "run-003", "pairs": [][2]string{{"v12", "a1"}, {"0", "b27"}}})
	if err != nil {
		t.Fatal(err)
	}
	var loadgen bytes.Buffer
	fmt.Fprintf(&loadgen, `{"run":%q,"pairs":[`, "run-017")
	for i, p := range [][2]int{{0, 7}, {12, 4999}, {1000000, 3}} {
		if i > 0 {
			loadgen.WriteByte(',')
		}
		fmt.Fprintf(&loadgen, "[%d,%d]", p[0], p[1])
	}
	loadgen.WriteString("]}")
	batches := []string{
		string(perfbench),
		loadgen.String(),
		`{"run":"r1","pairs":[["b1","c3"],[12,34]]}`, // README's curl body
		`{"pairs":[],"run":"r"}`,
		`{}`,
	}
	for _, body := range batches {
		sc := getBatchScratch()
		if _, ok := matchBatch([]byte(body), sc, 100); !ok {
			t.Errorf("matchBatch declined %s", body)
		} else {
			run, pairs, _ := batchOracle(body)
			checkBatch(t, body, sc, run, pairs)
		}
		sc.release()
	}
	var rpqs []string
	for _, m := range []map[string]string{
		{"run": "run-003", "from": "v12", "to": "a1", "pattern": "(a|b)* d|."},
		{"run": "r1", "from": "0", "to": "4999", "pattern": "()"},
		{"run": "r1", "pattern": "."},
	} {
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		rpqs = append(rpqs, string(body))
	}
	for _, body := range rpqs {
		sc := getBatchScratch()
		want, _ := rpqOracle(body)
		if !matchRPQ([]byte(body), sc) {
			t.Errorf("matchRPQ declined %s", body)
		} else if got := rpqFields(sc); got != want {
			t.Errorf("%s: matched %q, encoding/json %q", body, got, want)
		}
		sc.release()
	}

	for _, c := range []struct{ why, batch, rpq string }{
		{"spaces", `{"run": "r1","pairs":[[1, 2]]}`, `{"run":"r1", "from":"0","to":"1","pattern":"."}`},
		{"an escape", `{"run":"r\u0031","pairs":[[1,2]]}`, `{"run":"r1","from":"0","to":"1","pattern":"\\."}`},
		{"a raw <", `{"run":"r1","pairs":[["a<b",2]]}`, `{"run":"r1","from":"0","to":"1","pattern":"a<b"}`},
		{"non-ASCII", `{"run":"r1","pairs":[["é",2]]}`, `{"run":"r1","from":"é","to":"1","pattern":"."}`},
		{"a repeated key", `{"run":"r1","pairs":[[1,2]],"run":"r2"}`, `{"run":"r1","from":"0","to":"1","pattern":".","to":"2"}`},
		{"an unknown key", `{"run":"r1","pairs":[[1,2]],"n":1}`, `{"run":"r1","from":"0","to":"1","x":"","pattern":"."}`},
		{"a case-folded key", `{"Run":"r1","pairs":[[1,2]]}`, `{"run":"r1","FROM":"0","to":"1","pattern":"."}`},
		{"null", `{"run":"r1","pairs":null}`, `{"run":null,"from":"0","to":"1","pattern":"."}`},
		{"1.5", `{"run":"r1","pairs":[[1.5,2]]}`, ""},
		{"-1", `{"run":"r1","pairs":[[-1,2]]}`, ""},
	} {
		sc := getBatchScratch()
		if _, ok := matchBatch([]byte(c.batch), sc, 100); ok {
			t.Errorf("%s: matchBatch took %s", c.why, c.batch)
		}
		sc.resetRequest()
		err := parseBatchRequest([]byte(c.batch), sc, 100)
		if run, pairs, ok := batchOracle(c.batch); !ok {
			if err == nil {
				t.Errorf("%s: accepted %s, which encoding/json refuses", c.why, c.batch)
			}
		} else if err != nil {
			t.Errorf("%s: %s: %v", c.why, c.batch, err)
		} else {
			checkBatch(t, c.batch, sc, run, pairs)
		}
		if c.rpq != "" {
			sc.resetRequest()
			if matchRPQ([]byte(c.rpq), sc) {
				t.Errorf("%s: matchRPQ took %s", c.why, c.rpq)
			}
			sc.resetRequest()
			want, _ := rpqOracle(c.rpq)
			if err := parseRPQRequest([]byte(c.rpq), sc); err != nil {
				t.Errorf("%s: %s: %v", c.why, c.rpq, err)
			} else if got := rpqFields(sc); got != want {
				t.Errorf("%s: %s decoded %q, encoding/json %q", c.why, c.rpq, got, want)
			}
		}
		sc.release()
	}
}

// TestRequestBodiesDecodeAsEncodingJSON pins, over HTTP, the answers a
// body off json.Marshal's layout gets now that encoding/json decodes
// it: case-folded keys, invalid UTF-8, nulls, deep unknown values,
// over-limit bodies and encoding/json's own error texts.
func TestRequestBodiesDecodeAsEncodingJSON(t *testing.T) {
	_, st := newTestStore(t)
	s := newTestServer(t, st, 4, 4)
	deep := strings.Repeat(`{"x":`, 100) + `1` + strings.Repeat(`}`, 100)
	jsonErr := func(body string, req any) string { return json.Unmarshal([]byte(body), req).Error() }
	for _, c := range []struct {
		why, target, body string
		status            int
		want              string // in the response body
	}{
		{"case-folded keys", "/batch", `{"RUN":"alpha","Pairs":[["a1","h1"]]}`, 200, `"run":"alpha","count":1`},
		{"case-folded keys", "/rpq", `{"Run":"alpha","FROM":"a1","to":"h1","Pattern":".*"}`, 200, `"match":`},
		{"raw invalid UTF-8", "/batch", "{\"run\":\"alpha\",\"pairs\":[[\"a1\xff\",\"h1\"]]}", 404, "a1�"},
		{"null pairs", "/batch", `{"run":"alpha","pairs":null}`, 200, `"count":0,"results":[]`},
		{"null run", "/batch", `{"run":null,"pairs":[]}`, 400, "missing 'run'"},
		{"null run", "/rpq", `{"run":null,"from":"a1","to":"h1","pattern":"."}`, 400, "missing 'run'"},
		{"null from", "/rpq", `{"run":"alpha","from":null,"to":"h1","pattern":"."}`, 400, "missing 'from' or 'to'"},
		{"null to", "/rpq", `{"run":"alpha","from":"a1","to":null,"pattern":"."}`, 400, "missing 'from' or 'to'"},
		{"deep unknown key", "/batch", deep, 400, "missing 'run'"},
		{"deep unknown key", "/batch", `{"run":"alpha","x":` + deep + `,"pairs":[["a1","h1"]]}`, 200, `"count":1`},
		{"over the limit and malformed", "/batch", `{"run":"alpha","pairs":[[0,1],[0,1],[0,1],[0,1],[0,1],]}`, 400, "invalid character ']'"},
		{"over the limit, one bad pair", "/batch", `{"run":"alpha","pairs":[[0,1],[0,1],[0,1],[0,1],[0]]}`, 400, "pair 4 has 1 elements"},
		{"over the limit, spaced", "/batch", `{"run":"alpha", "pairs":[[0,1],[0,1],[0,1],[0,1],[0,1]]}`, 413, "batch exceeds limit of 4 pairs"},
		{"a bad element", "/batch", `{"run":"alpha","pairs":[[0,1],[true,1]]}`, 400, "pair 1: element 0 is not a string"},
		{"syntax", "/batch", "{not json", 400, jsonErr("{not json", new(batchRequest))},
		{"a wrong type", "/batch", `{"run":1}`, 400, jsonErr(`{"run":1}`, new(batchRequest))},
		{"a wrong type", "/rpq", `{"run":"alpha","from":1}`, 400, jsonErr(`{"run":"alpha","from":1}`, new(rpqRequest))},
		{"trailing data", "/rpq", `{"run":"alpha","from":"a1","to":"h1","pattern":"."} x`, 400, "invalid character 'x' after top-level value"},
	} {
		rec := do(t, s, "POST", c.target, c.body, nil)
		if rec.Code != c.status || !strings.Contains(rec.Body.String(), c.want) {
			t.Errorf("%s: POST %s %.60q: %d %s, want %d with %q", c.why, c.target, c.body, rec.Code, rec.Body.String(), c.status, c.want)
		}
	}
}

// FuzzBatchRequestOracle holds the /batch decoder to encoding/json in
// both directions: parseBatchRequest accepts exactly the bodies
// batchOracle accepts, with the same run and pairs, and over a limit of
// two pairs answers errBatchTooLarge exactly for accepted bodies of
// more.
func FuzzBatchRequestOracle(f *testing.F) {
	for _, body := range []string{
		`{"run":"r1","pairs":[["b1","c3"],[12,34],["12",7]]}`,
		`{"pairs":[["v12","a1"],["0","b27"]],"run":"run-003"}`,
		`{"pairs":[],"run":"r2"}`,
		` { "run" : "r1" , "pairs" : [ [ "a1" , 0 ] ] } `,
		`{"run":"r1","debug":true,"opts":{"a":[1,{"b":null}],"s":"x,][}"},"n":-1.5e3,"pairs":[["a1","b2"]]}`,
		`{"run":"r\u0031","pairs":[["\ud83d\ude00","b\n1"],["\ud800\u0041","\udc00"]]}`,
		`{"run":"a","pairs":[[1,2]],"run":"b","pairs":[[3,4],[5,6]]}`,
		`{"pairs":[[1,2]],"pairs":[[3,4]],"run":"r"}`,
		`{"run":"r","pairs":[[99999999999999999999,0],[2147483629,2147483630]],"n":[0,-0,0.5,1E+2,2e-3]}`,
		`{"run":"r","pairs":[[01,2]]}`,
		`{"run":"r","pairs":[[1,2]],"n":1.2.3}`,
		`{"run":"r","pairs":[[1,2],[3]]}`,
		`{"run":"r","pairs":[[1,2],[3,4],[5,6]]}`,
		`{"run":"r","pairs":null}`,
		`{"run":null,"pairs":[[null,1]]}`,
		`{"RUN":"r","Pairs":[[1,2]]}`,
		"{\"run\":\"r\xff\",\"pairs\":[]}",
		`{"run":"<&>","pairs":[["é","1"]]}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		run, pairs, ok := batchOracle(body)
		for _, limit := range []int{1 << 20, 2} {
			sc := getBatchScratch()
			err := parseBatchRequest([]byte(body), sc, limit)
			switch {
			case !ok:
				if err == nil || errors.Is(err, errBatchTooLarge) {
					t.Fatalf("limit %d: %q, which encoding/json refuses: err %v", limit, body, err)
				}
			case len(pairs) > limit:
				if !errors.Is(err, errBatchTooLarge) {
					t.Fatalf("limit %d: %q holds %d pairs: err %v", limit, body, len(pairs), err)
				}
			case err != nil:
				t.Fatalf("limit %d: refused %q, which encoding/json accepts: %v", limit, body, err)
			default:
				checkBatch(t, body, sc, run, pairs)
			}
			sc.release()
		}
	})
}

// FuzzRPQRequestOracle holds the /rpq body decoder to encoding/json in
// both directions: parseRPQRequest accepts exactly the bodies
// json.Unmarshal accepts into the request struct, with the same four
// fields.
func FuzzRPQRequestOracle(f *testing.F) {
	for _, body := range []string{
		`{"run":"r1","from":"b1","to":"c3","pattern":".*"}`,
		`{"from":"v12","pattern":"(a|b)* d","run":"run-003","to":"a1"}`,
		`{"pattern":"(a|b)* d","to":"7","from":"0","run":"r2"}`,
		` { "run" : "r1" , "from" : "0" , "to" : "1" , "pattern" : "()" } `,
		`{"run":"r1","debug":true,"opts":{"a":[1,{"b":null}],"s":"x,][}"},"n":-1.5e3,"from":"a1","to":"b2","pattern":"."}`,
		`{"run":"r\u0031","from":"\ud83d\ude00","to":"b\n1","pattern":"\ud800\u0041"}`,
		`{"run":"a","from":"1","run":"b","from":"2","to":"3","pattern":"x"}`,
		`{"run":"r","from":null,"to":"1","pattern":"."}`,
		`{"run":"r","from":0,"to":"1","pattern":"."}`,
		`{"run":"r","pattern":"."}`,
		`{}`,
		`{"RUN":"r","From":"0","TO":"1","Pattern":"."}`,
		"{\"run\":\"r\xff\",\"from\":\"0\",\"to\":\"1\",\"pattern\":\".\"}",
		`{"run":"r","from":"0","to":"1","pattern":"."} x`,
		`{"run":"r","from":"0","to":"1","pattern":"a<b&c"}`,
	} {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body string) {
		sc := getBatchScratch()
		defer sc.release()
		err := parseRPQRequest([]byte(body), sc)
		want, ok := rpqOracle(body)
		switch {
		case !ok && err == nil:
			t.Fatalf("accepted %q, which encoding/json refuses", body)
		case ok && err != nil:
			t.Fatalf("refused %q, which encoding/json accepts: %v", body, err)
		case ok:
			if got := rpqFields(sc); got != want {
				t.Fatalf("%q: decoded %q, encoding/json %q", body, got, want)
			}
		}
	})
}
