package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// postEvents streams one append batch to a live provserve and returns
// the decoded response.
func postEvents(t *testing.T, base, name string, offset int, body []byte) (status int, resp map[string]any) {
	t.Helper()
	url := fmt.Sprintf("%s/runs/%s/events?offset=%d", base, name, offset)
	r, err := http.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	resp = map[string]any{}
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatalf("POST %s: status %d, unreadable body: %v", url, r.StatusCode, err)
	}
	return r.StatusCode, resp
}

// getRaw fetches a URL and returns the exact response body, for
// byte-level differential comparison.
func getRaw(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestStreamEndToEnd is the over-the-wire streaming differential test:
// one provserve is populated by streaming a run's engine event log —
// event by event at first, then resumed by provquery -append and sealed
// by provquery -finish — while a second provserve ingests the same run
// whole via PUT /runs/{name}. After the seal, /reachable, /batch and
// /lineage must answer byte-identically on both servers: streaming is
// an ingest transport, not a different engine.
func TestStreamEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	s := repro.PaperSpec()
	if _, err := repro.CreateStore(filepath.Join(dir, "seed"), s, "paper"); err != nil {
		t.Fatal(err)
	}
	bin := buildProvserve(t, dir)
	streamed := startProvserve(t, bin, "-store", "mem://"+filepath.Join(dir, "seed"), "-stream")
	direct := startProvserve(t, bin, "-store", "mem://"+filepath.Join(dir, "seed"), "-ingest")

	rng := rand.New(rand.NewSource(99))
	r, p := repro.GenerateRun(s, rng, 140)
	evs := repro.EmitEvents(r, p)

	// The reference: the same run PUT whole on the direct server.
	var doc bytes.Buffer
	if err := repro.WriteRunXML(&doc, r, nil, "paper"); err != nil {
		t.Fatal(err)
	}
	if status, body := putRunDoc(t, direct.base, "r", doc.String()); status != 200 {
		t.Fatalf("PUT /runs/r: %d %v", status, body)
	}

	// Stream the first two thirds event by event, each append carrying
	// its explicit offset.
	mid := 2 * len(evs) / 3
	for i := 0; i < mid; i++ {
		var buf bytes.Buffer
		if err := repro.WriteEventLog(&buf, evs[i:i+1]); err != nil {
			t.Fatal(err)
		}
		status, resp := postEvents(t, streamed.base, "r", i, buf.Bytes())
		if status != 200 || resp["applied"] != float64(1) || resp["seq"] != float64(i+1) {
			t.Fatalf("append event %d: %d %v", i, status, resp)
		}
	}

	// Mid-stream, the run is live and queryable on the streamed server.
	var st struct {
		Status string `json:"status"`
		Events int    `json:"events"`
	}
	getJSON(t, streamed.base+"/runs/r", &st)
	if st.Status != "live" || st.Events != mid {
		t.Fatalf("mid-stream status = %+v, want live with %d events", st, mid)
	}
	getRaw(t, streamed.base+"/reachable?run=r&from=0&to=1") // must answer, not 404

	// An integer field must be a whole integer. The next event with junk
	// after its last integer is a 400 that applies nothing, where a
	// parser reading the leading number would have applied the event.
	var next bytes.Buffer
	if err := repro.WriteEventLog(&next, evs[mid:mid+1]); err != nil {
		t.Fatal(err)
	}
	for _, junk := range []string{"junk", "_0", ".0", "x1"} {
		bad := strings.TrimSuffix(next.String(), "\n") + junk + "\n"
		if status, resp := postEvents(t, streamed.base, "r", mid, []byte(bad)); status != 400 {
			t.Fatalf("append %q: %d %v, want 400", bad, status, resp)
		}
	}
	getJSON(t, streamed.base+"/runs/r", &st)
	if st.Events != mid {
		t.Fatalf("after rejected appends, status = %+v, want %d events", st, mid)
	}

	// provquery -append resumes from the server's cursor (the full log
	// is on disk; the tool must skip the mid already-streamed events),
	// then -finish seals the run into a stored SKL2 snapshot.
	logPath := filepath.Join(dir, "r.events")
	var full bytes.Buffer
	if err := repro.WriteEventLog(&full, evs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logPath, full.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runTool(t, "provquery", "-append", streamed.base, "-run", logPath, "-as", "r")
	want := fmt.Sprintf("%d events applied", len(evs)-mid)
	if !strings.Contains(out, want) {
		t.Fatalf("provquery -append should resume past %d streamed events (want %q):\n%s", mid, want, out)
	}
	out = runTool(t, "provquery", "-finish", streamed.base, "-run", "r")
	if !strings.Contains(out, "SKL2") || !strings.Contains(out, fmt.Sprintf("%d vertices", r.NumVertices())) {
		t.Fatalf("provquery -finish output unexpected:\n%s", out)
	}
	getJSON(t, streamed.base+"/runs/r", &st)
	if st.Status != "finished" {
		t.Fatalf("status after finish = %+v", st)
	}

	// Byte-identical answers across both servers, on all three read
	// endpoints.
	n := r.NumVertices()
	for u := 0; u < n; u += 7 {
		for v := 0; v < n; v += 5 {
			path := fmt.Sprintf("/reachable?run=r&from=%d&to=%d", u, v)
			if got, ref := getRaw(t, streamed.base+path), getRaw(t, direct.base+path); got != ref {
				t.Fatalf("%s differs:\nstreamed: %s\ndirect:   %s", path, got, ref)
			}
		}
	}
	for v := 0; v < n; v += 9 {
		for _, d := range []string{"up", "down"} {
			path := fmt.Sprintf("/lineage?run=r&vertex=%d&dir=%s", v, d)
			if got, ref := getRaw(t, streamed.base+path), getRaw(t, direct.base+path); got != ref {
				t.Fatalf("%s differs", path)
			}
		}
	}
	var sb strings.Builder
	sb.WriteString(`{"run":"r","pairs":[`)
	for i := 0; i+1 < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", i, i+1)
	}
	sb.WriteString(`]}`)
	post := func(base string) string {
		resp, err := http.Post(base+"/batch", "application/json", strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("/batch: status %d", resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if got, ref := post(streamed.base), post(direct.base); got != ref {
		t.Fatalf("/batch differs:\nstreamed: %s\ndirect:   %s", got, ref)
	}
}

// TestStreamCrashRecoveryEndToEnd SIGKILLs provserve mid-stream and
// restarts it on the same fs store: every acknowledged append must
// survive (replayed from the durable event log, the stream's only
// copy), the stream must resume from the server's cursor, and the
// sealed run must match the generated one. This is the crash-safety
// contract of the acknowledged-write path with the real binary and real
// disk state.
func TestStreamCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	if _, err := repro.CreateStore(storeDir, repro.PaperSpec(), "paper"); err != nil {
		t.Fatal(err)
	}
	bin := buildProvserve(t, dir)
	p := startProvserve(t, bin, "-store", storeDir, "-stream")

	rng := rand.New(rand.NewSource(100))
	r, pl := repro.GenerateRun(repro.PaperSpec(), rng, 160)
	evs := repro.EmitEvents(r, pl)

	// Stream two thirds in small batches.
	mid := 2 * len(evs) / 3
	acked := 0
	for acked < mid {
		j := min(acked+7, mid)
		var buf bytes.Buffer
		if err := repro.WriteEventLog(&buf, evs[acked:j]); err != nil {
			t.Fatal(err)
		}
		status, resp := postEvents(t, p.base, "crash", acked, buf.Bytes())
		if status != 200 {
			t.Fatalf("append at %d: %d %v", acked, status, resp)
		}
		acked = j
	}

	// SIGKILL: no shutdown hooks — only what the durable append path
	// already wrote survives.
	p.cmd.Process.Kill()
	<-p.exited

	p2 := startProvserve(t, bin, "-store", storeDir, "-stream")
	var st struct {
		Status        string `json:"status"`
		Events        int    `json:"events"`
		CheckpointSeq int    `json:"checkpoint_seq"`
	}
	getJSON(t, p2.base+"/runs/crash", &st)
	if st.Status != "live" || st.Events != acked {
		t.Fatalf("after SIGKILL+restart: %+v, want live with all %d acknowledged events", st, acked)
	}
	if st.CheckpointSeq != 0 {
		t.Fatalf("recovery of a log with no torn tail should write no checkpoint, got checkpoint_seq=%d of %d events", st.CheckpointSeq, acked)
	}

	// Resume from the server's cursor and seal.
	for acked < len(evs) {
		j := min(acked+8, len(evs))
		var buf bytes.Buffer
		if err := repro.WriteEventLog(&buf, evs[acked:j]); err != nil {
			t.Fatal(err)
		}
		if status, resp := postEvents(t, p2.base, "crash", acked, buf.Bytes()); status != 200 {
			t.Fatalf("resumed append at %d: %d %v", acked, status, resp)
		}
		acked = j
	}
	fin, err := http.Post(p2.base+"/runs/crash/finish", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sealed struct {
		Vertices int `json:"vertices"`
		Events   int `json:"events"`
	}
	if err := json.NewDecoder(fin.Body).Decode(&sealed); err != nil {
		t.Fatal(err)
	}
	fin.Body.Close()
	if fin.StatusCode != 200 || sealed.Vertices != r.NumVertices() || sealed.Events != len(evs) {
		t.Fatalf("finish after recovery: %d %+v, want %d vertices from %d events", fin.StatusCode, sealed, r.NumVertices(), len(evs))
	}

	// The sealed run answers like the in-process engine on the original.
	l, err := repro.LabelRun(r, repro.TCM)
	if err != nil {
		t.Fatal(err)
	}
	n := r.NumVertices()
	for q := 0; q < 40; q++ {
		u, v := repro.VertexID(rng.Intn(n)), repro.VertexID(rng.Intn(n))
		var reach struct {
			Reachable bool `json:"reachable"`
		}
		getJSON(t, fmt.Sprintf("%s/reachable?run=crash&from=%d&to=%d", p2.base, u, v), &reach)
		if want := l.Reachable(u, v); reach.Reachable != want {
			t.Fatalf("after crash recovery, (%d,%d) = %v, in-process engine says %v", u, v, reach.Reachable, want)
		}
	}
}
