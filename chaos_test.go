package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/store/faultinject"
)

// chaos_test.go is the resilience layer's acceptance suite: a provserve
// stack (retry wrapper + circuit breaker + streaming recovery) is
// driven concurrently — PUTs, streaming appends, finishes, deletes and
// reads — over a fault-injecting backend that fails ~5% of operations,
// tears append tails and loses run-document halves. The assertions are
// the failure model's promises, not "it mostly works":
//
//   - Reads of a resident run never fail — not 500, not 503 — no
//     matter what the backend does (cache hits and live sessions need
//     no I/O, and degraded mode preserves exactly that).
//   - No read ever maps an injected fault to a 500: the transient
//     contract surfaces as 503 + Retry-After or not at all.
//   - No acknowledged event is ever lost: a session's reported
//     sequence never moves backwards past what a client was told, and
//     appends never hit ErrConflict (a torn session would).
//   - Once faults stop, every stream seals and answers byte-identically
//     to the same run ingested whole on a fault-free twin server.

// chaosClient wraps the battery of HTTP calls the workers share.
type chaosClient struct {
	t    *testing.T
	base string
}

func (c *chaosClient) get(path string) (int, string) {
	resp, err := http.Get(c.base + path)
	if err != nil {
		c.t.Errorf("GET %s: %v", path, err)
		return 0, ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func (c *chaosClient) req(method, path, body string) (int, string) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		c.t.Fatalf("%s %s: %v", method, path, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		c.t.Errorf("%s %s: %v", method, path, err)
		return 0, ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// streamState is one chaos streamer's view of its run: the events it
// intends to stream and the highest sequence the server acknowledged.
type streamState struct {
	name  string
	text  []string // batches in wire format
	sizes []int    // events per batch
	total int
	acked int // highest acknowledged sequence
}

// eventBatches renders a run's engine events into wire-format batches.
func eventBatches(t *testing.T, s *repro.Spec, seed int64, size, batch int) ([]string, []int, int) {
	t.Helper()
	r, p := repro.GenerateRun(s, rand.New(rand.NewSource(seed)), size)
	evs := repro.EmitEvents(r, p)
	var texts []string
	var sizes []int
	for start := 0; start < len(evs); start += batch {
		end := start + batch
		if end > len(evs) {
			end = len(evs)
		}
		var buf bytes.Buffer
		if err := repro.WriteEventLog(&buf, evs[start:end]); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, buf.String())
		sizes = append(sizes, end-start)
	}
	return texts, sizes, len(evs)
}

// seqOf decodes the "seq" field from an append/status response body.
func seqOf(t *testing.T, body string) (int, bool) {
	var resp struct {
		Seq    *int   `json:"seq"`
		Events *int   `json:"events"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		return 0, false
	}
	if resp.Seq != nil {
		return *resp.Seq, true
	}
	if resp.Events != nil && resp.Status == "live" {
		return *resp.Events, true
	}
	return 0, false
}

// TestChaos is the torture run. Run it under -race: the fault injector
// exercises every error path concurrently with the happy paths, which
// is exactly where lock ordering and session lifecycle bugs hide.
func TestChaos(t *testing.T) {
	sp := repro.PaperSpec()

	// The system under test: mem backend, wrapped in the fault injector,
	// wrapped in the retry layer, with the breaker armed. No faults yet —
	// the plan is flipped on after setup.
	base, err := repro.NewMemStore(sp, "paper")
	if err != nil {
		t.Fatal(err)
	}
	fb := faultinject.Wrap(base.Backend(), faultinject.Plan{})
	st, err := repro.OpenStoreOverBackend(repro.WithRetryBackend(fb, repro.StoreRetryPolicy{}))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{
		Store:            st,
		Scheme:           repro.TCM,
		CacheSize:        16,
		EnableIngest:     true,
		EnableStream:     true,
		BreakerThreshold: 5,
		BreakerCooldown:  25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c := &chaosClient{t: t, base: hs.URL}

	// The fault-free twin for the final differential: same spec, plain
	// mem store, no faults, no breaker.
	twinStore, err := repro.NewMemStore(sp, "paper")
	if err != nil {
		t.Fatal(err)
	}
	twinSrv, err := repro.NewServer(repro.ServerConfig{
		Store: twinStore, Scheme: repro.TCM, CacheSize: 16, EnableIngest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	twin := httptest.NewServer(twinSrv)
	defer twin.Close()
	tc := &chaosClient{t: t, base: twin.URL}

	// Pre-fault setup: a "hot" run PUT and queried once, so it is
	// resident — the read the whole outage story promises never fails.
	renderRun := func(seed int64, size int) string {
		r, _ := repro.GenerateRun(sp, rand.New(rand.NewSource(seed)), size)
		var buf bytes.Buffer
		if err := repro.WriteRunXML(&buf, r, nil, "paper"); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	hotXML := renderRun(7, 120)
	if code, body := c.req("PUT", "/runs/hot", hotXML); code != 200 {
		t.Fatalf("PUT hot: %d %s", code, body)
	}
	if code, _ := c.get("/reachable?run=hot&from=0&to=1"); code != 200 {
		t.Fatal("warming hot run failed")
	}
	putXMLs := make([]string, 3)
	for i := range putXMLs {
		putXMLs[i] = renderRun(int64(200+i), 100)
	}

	// Streamers get deterministic event batch sequences.
	streams := make([]*streamState, 2)
	for i := range streams {
		texts, sizes, total := eventBatches(t, sp, int64(300+i), 100, 8)
		streams[i] = &streamState{name: fmt.Sprintf("chaos-stream-%d", i), text: texts, sizes: sizes, total: total}
	}

	// Faults on: 5% transient errors everywhere, plus torn append tails
	// and partial run writes at 2% — the two corruptions with a
	// distinguished recovery story.
	fb.SetPlan(faultinject.Plan{
		Seed:    42,
		Default: faultinject.Rule{ErrRate: 0.05},
		PerOp: map[faultinject.Op]faultinject.Rule{
			faultinject.OpAppendEventLog: {ErrRate: 0.05, TornRate: 0.02},
			faultinject.OpWriteRun:       {ErrRate: 0.05, PartialRate: 0.02},
		},
	})

	var wg sync.WaitGroup

	// Readers: the hot run must answer 200 forever; random cold reads
	// may miss (404) or shed (503) but must never 500 — an injected
	// fault surfacing as a server error breaks the transient contract.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			targets := []string{
				"/reachable?run=hot&from=0&to=5",
				"/lineage?run=hot&vertex=2&dir=up",
				"/runs/hot",
			}
			for i := 0; i < 250; i++ {
				if code, body := c.get(targets[i%len(targets)]); code != 200 {
					t.Errorf("reader %d: hot read %q: %d %s", w, targets[i%len(targets)], code, body)
					return
				}
				if code, body := c.get(fmt.Sprintf("/reachable?run=chaos-put-%d&from=0&to=1", i%3)); code != 200 && code != 404 && code != 503 {
					t.Errorf("reader %d: cold read: %d %s", w, code, body)
					return
				}
			}
		}(w)
	}

	// Writers: PUT and DELETE under faults. Acceptable outcomes only —
	// 200, 404 (deleting a run that lost the race), 503 (shed or
	// retry-exhausted transient). 500 means a fault was misclassified.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lr := rand.New(rand.NewSource(int64(500 + w)))
			for i := 0; i < 60; i++ {
				name := fmt.Sprintf("chaos-put-%d", lr.Intn(3))
				if lr.Intn(4) == 0 {
					if code, body := c.req("DELETE", "/runs/"+name, ""); code != 200 && code != 404 && code != 503 {
						t.Errorf("writer %d: DELETE %s: %d %s", w, name, code, body)
						return
					}
					continue
				}
				if code, body := c.req("PUT", "/runs/"+name, putXMLs[lr.Intn(len(putXMLs))]); code != 200 && code != 503 {
					t.Errorf("writer %d: PUT %s: %d %s", w, name, code, body)
					return
				}
			}
		}(w)
	}

	// Streamers: append batches with a resuming cursor, exactly like a
	// real engine client. 503 → retry; 500 (a torn tail broke the
	// session) → resync the cursor from status and retry, which drives
	// the server's recovery path; 409 → a torn session survived into
	// the history, the one thing that must never happen.
	for _, ss := range streams {
		wg.Add(1)
		go func(ss *streamState) {
			defer wg.Done()
			batch, failures := 0, 0
			for batch < len(ss.text) && failures < 200 {
				code, body := c.req("POST", fmt.Sprintf("/runs/%s/events?offset=%d", ss.name, ss.acked), ss.text[batch])
				switch {
				case code == 200:
					seq, ok := seqOf(t, body)
					if !ok {
						t.Errorf("stream %s: 200 without seq: %s", ss.name, body)
						return
					}
					if seq < ss.acked {
						t.Errorf("stream %s: acknowledged sequence moved backwards: %d -> %d (acked-event loss)", ss.name, ss.acked, seq)
						return
					}
					ss.acked = seq
					batch++
				case code == 503 || code == 500:
					// Transient shed or torn-tail 500: back off a hair, then
					// resync the cursor — recovery may have replayed complete
					// lines from the torn batch, moving the sequence forward
					// past our last ack (never backwards).
					failures++
					time.Sleep(2 * time.Millisecond)
					if gcode, gbody := c.get("/runs/" + ss.name); gcode == 200 {
						if seq, ok := seqOf(t, gbody); ok {
							if seq < ss.acked {
								t.Errorf("stream %s: recovery lost acknowledged events: had %d, server reports %d", ss.name, ss.acked, seq)
								return
							}
							ss.acked = seq
							for batch < len(ss.text) && sumTo(ss.sizes, batch) < seq {
								batch++
							}
						}
					}
				case code == 409:
					t.Errorf("stream %s: conflict at offset %d — torn session in the applied history: %s", ss.name, ss.acked, body)
					return
				default:
					t.Errorf("stream %s: append: %d %s", ss.name, code, body)
					return
				}
			}
			if batch < len(ss.text) {
				t.Errorf("stream %s: gave up after %d transient failures at batch %d/%d", ss.name, failures, batch, len(ss.text))
			}
		}(ss)
	}

	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	inj := fb.Injected()
	var injTotal int64
	for _, n := range inj {
		injTotal += n
	}
	if injTotal == 0 {
		t.Fatal("chaos run injected zero faults — the suite proved nothing")
	}
	t.Logf("injected %d faults: %v", injTotal, inj)

	// Faults off. Whatever state the chaos left — possibly a breaker
	// mid-open — must heal on its own.
	fb.SetPlan(faultinject.Plan{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h struct {
			Degraded bool `json:"degraded"`
		}
		code, body := c.get("/healthz")
		if code != 200 {
			t.Fatalf("healthz after heal: %d", code)
		}
		if json.Unmarshal([]byte(body), &h); !h.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never closed after faults stopped: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Differential close-out: finish every stream and compare against
	// the same runs ingested whole on the fault-free twin —
	// byte-identical answers on every query endpoint.
	for i, ss := range streams {
		// Top the stream up to its full event sequence, fault-free.
		for batch := 0; ss.acked < ss.total && batch < len(ss.text); batch++ {
			if sumTo(ss.sizes, batch+1) <= ss.acked {
				continue
			}
			code, body := c.req("POST", fmt.Sprintf("/runs/%s/events?offset=%d", ss.name, ss.acked), ss.text[batch])
			if code != 200 {
				t.Fatalf("stream %s: fault-free append: %d %s", ss.name, code, body)
			}
			seq, _ := seqOf(t, body)
			ss.acked = seq
		}
		if ss.acked != ss.total {
			t.Fatalf("stream %s: ends at %d of %d events", ss.name, ss.acked, ss.total)
		}
		if code, body := c.req("POST", "/runs/"+ss.name+"/finish", ""); code != 200 {
			t.Fatalf("finish %s: %d %s", ss.name, code, body)
		}

		// The twin ingests the identical run as one document.
		r, _ := repro.GenerateRun(sp, rand.New(rand.NewSource(int64(300+i))), 100)
		var doc bytes.Buffer
		if err := repro.WriteRunXML(&doc, r, nil, "paper"); err != nil {
			t.Fatal(err)
		}
		if code, body := tc.req("PUT", "/runs/"+ss.name, doc.String()); code != 200 {
			t.Fatalf("twin PUT %s: %d %s", ss.name, code, body)
		}

		n := r.NumVertices()
		var queries []string
		for u := 0; u < n; u += 5 {
			for v := 0; v < n; v += 7 {
				queries = append(queries, fmt.Sprintf("/reachable?run=%s&from=%d&to=%d", ss.name, u, v))
			}
		}
		for v := 0; v < n; v += 9 {
			queries = append(queries, fmt.Sprintf("/lineage?run=%s&vertex=%d&dir=up", ss.name, v))
			queries = append(queries, fmt.Sprintf("/lineage?run=%s&vertex=%d&dir=down", ss.name, v))
		}
		for _, q := range queries {
			ccode, cbody := c.get(q)
			tcode, tbody := tc.get(q)
			if ccode != 200 || tcode != 200 {
				t.Fatalf("differential %s: chaos %d, twin %d", q, ccode, tcode)
			}
			if cbody != tbody {
				t.Fatalf("differential %s:\nchaos: %s\ntwin:  %s", q, cbody, tbody)
			}
		}
		pairs := fmt.Sprintf(`{"run":%q,"pairs":[[0,1],[1,2],[2,%d]]}`, ss.name, n-1)
		_, cbody := c.req("POST", "/batch", pairs)
		_, tbody := tc.req("POST", "/batch", pairs)
		if cbody != tbody {
			t.Fatalf("differential /batch:\nchaos: %s\ntwin:  %s", cbody, tbody)
		}

		// Path queries answer byte-identically after healing, too: the
		// sealed stream and the whole-document ingest drive the same
		// RPQ engine over the same labels.
		midName := sp.NameOf(r.Origin[n/2])
		for _, pat := range []string{".*", "()", fmt.Sprintf(".* %s .*", midName)} {
			for _, pr := range [][2]int{{0, 1}, {0, n - 1}, {n / 2, n - 1}} {
				body := fmt.Sprintf(`{"run":%q,"from":"%d","to":"%d","pattern":%q}`, ss.name, pr[0], pr[1], pat)
				ccode, cbody := c.req("POST", "/rpq", body)
				tcode, tbody := tc.req("POST", "/rpq", body)
				if ccode != 200 || tcode != 200 {
					t.Fatalf("differential /rpq %q (%d,%d): chaos %d %s, twin %d %s", pat, pr[0], pr[1], ccode, cbody, tcode, tbody)
				}
				if cbody != tbody {
					t.Fatalf("differential /rpq %q:\nchaos: %s\ntwin:  %s", pat, cbody, tbody)
				}
			}
		}
	}

	// And the hot run is still exactly what was put before the storm.
	if code, _ := c.get("/reachable?run=hot&from=0&to=5"); code != 200 {
		t.Fatal("hot run lost after chaos")
	}
}

// sumTo sums the first n batch sizes — the sequence number the nth
// batch starts at.
func sumTo(sizes []int, n int) int {
	total := 0
	for _, s := range sizes[:n] {
		total += s
	}
	return total
}
