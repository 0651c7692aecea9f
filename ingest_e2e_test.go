package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro"
)

// provserveProc is one running provserve binary under test.
type provserveProc struct {
	base   string // http://host:port
	cmd    *exec.Cmd
	exited chan struct{}
	log    *bytes.Buffer
}

// startProvserve builds (once) and launches provserve with the given
// extra flags on a fresh port, waiting until /healthz answers. The
// listen-then-close port reservation races with other processes, so the
// whole launch retries on a fresh port if the daemon dies early.
func startProvserve(t *testing.T, bin string, extra ...string) *provserveProc {
	t.Helper()
	for attempt := 0; ; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()

		var logBuf bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-addr", addr}, extra...)...)
		cmd.Stdout, cmd.Stderr = &logBuf, &logBuf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan struct{})
		go func(c *exec.Cmd) { c.Wait(); close(exited) }(cmd)
		isDead := func() bool {
			select {
			case <-exited:
				return true
			default:
				return false
			}
		}
		p := &provserveProc{base: "http://" + addr, cmd: cmd, exited: exited, log: &logBuf}
		healthy := false
		for deadline := time.Now().Add(10 * time.Second); !healthy && !isDead() && time.Now().Before(deadline); {
			if resp, err := http.Get(p.base + "/healthz"); err == nil {
				resp.Body.Close()
				healthy = true
			} else {
				time.Sleep(25 * time.Millisecond)
			}
		}
		if healthy {
			t.Cleanup(func() {
				cmd.Process.Kill()
				<-exited
			})
			return p
		}
		cmd.Process.Kill()
		<-exited
		if attempt >= 2 {
			t.Fatalf("provserve never became healthy after %d attempts\nlog: %s", attempt+1, logBuf.String())
		}
	}
}

// shutdown sends SIGTERM (the graceful path that drains in-flight
// requests) and waits for the process to exit.
func (p *provserveProc) shutdown(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		t.Fatalf("provserve did not exit after SIGTERM\nlog: %s", p.log.String())
	}
}

func buildProvserve(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "provserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/provserve").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func putRunDoc(t *testing.T, base, name, doc string) (status int, body map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/runs/"+name, strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body = map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("PUT %s: status %d, unreadable body: %v", name, resp.StatusCode, err)
	}
	return resp.StatusCode, body
}

// TestIngestEndToEnd is the over-the-wire differential test: a
// mem-backed provserve starts holding nothing but the specification, is
// populated entirely through PUT /runs/{name}, and must then answer
// /reachable, /batch and /lineage exactly like the in-process core
// engine labeling the same run — extending differential_test.go's
// labeling-paths-agree property across the HTTP boundary.
func TestIngestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	s := repro.PaperSpec()
	// An fs store holding only the spec; mem:// preloads it, so the
	// served store is RAM-only with zero runs.
	if _, err := repro.CreateStore(filepath.Join(dir, "seed"), s, "paper"); err != nil {
		t.Fatal(err)
	}
	bin := buildProvserve(t, dir)
	p := startProvserve(t, bin, "-store", "mem://"+filepath.Join(dir, "seed"), "-ingest")

	var runs struct {
		Runs []string `json:"runs"`
	}
	getJSON(t, p.base+"/runs", &runs)
	if len(runs.Runs) != 0 {
		t.Fatalf("server should start empty, has runs %v", runs.Runs)
	}

	// Ingest a generated run (with data items) over the wire.
	rng := rand.New(rand.NewSource(77))
	r, _ := repro.GenerateRun(s, rng, 250)
	ann := repro.RandomData(r, rng, 1.1, 0.3)
	var doc bytes.Buffer
	if err := repro.WriteRunXML(&doc, r, ann, "paper"); err != nil {
		t.Fatal(err)
	}
	status, put := putRunDoc(t, p.base, "r1", doc.String())
	if status != 200 {
		t.Fatalf("PUT /runs/r1: %d %v", status, put)
	}
	if put["snapshot_version"] != "SKL2" || put["vertices"] != float64(r.NumVertices()) {
		t.Fatalf("PUT response = %v, want SKL2 snapshot of %d vertices", put, r.NumVertices())
	}

	// The in-process reference: the same run labeled by the core engine.
	l, err := repro.LabelRun(r, repro.TCM)
	if err != nil {
		t.Fatal(err)
	}
	n := r.NumVertices()

	// /reachable, one query at a time.
	for q := 0; q < 30; q++ {
		u, v := repro.VertexID(rng.Intn(n)), repro.VertexID(rng.Intn(n))
		var reach struct {
			Reachable bool `json:"reachable"`
		}
		getJSON(t, fmt.Sprintf("%s/reachable?run=r1&from=%d&to=%d", p.base, u, v), &reach)
		if want := l.Reachable(u, v); reach.Reachable != want {
			t.Fatalf("/reachable(%d,%d) = %v, in-process engine says %v", u, v, reach.Reachable, want)
		}
	}

	// /batch, 300 pairs in one request.
	var sb strings.Builder
	sb.WriteString(`{"run":"r1","pairs":[`)
	pairs := make([][2]repro.VertexID, 300)
	for i := range pairs {
		pairs[i] = [2]repro.VertexID{repro.VertexID(rng.Intn(n)), repro.VertexID(rng.Intn(n))}
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d]", pairs[i][0], pairs[i][1])
	}
	sb.WriteString(`]}`)
	resp, err := http.Post(p.base+"/batch", "application/json", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		Count   int    `json:"count"`
		Results []bool `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if batch.Count != len(pairs) {
		t.Fatalf("/batch count = %d, want %d", batch.Count, len(pairs))
	}
	for i, pr := range pairs {
		if want := l.Reachable(pr[0], pr[1]); batch.Results[i] != want {
			t.Fatalf("/batch pair %d (%d,%d) = %v, in-process engine says %v", i, pr[0], pr[1], batch.Results[i], want)
		}
	}

	// /lineage in both directions against the label-based cones.
	nm := repro.NewNamer(r)
	for _, v := range []repro.VertexID{0, repro.VertexID(n / 2), repro.VertexID(n - 1)} {
		for _, dir := range []string{"up", "down"} {
			var lin struct {
				Count int `json:"count"`
			}
			getJSON(t, fmt.Sprintf("%s/lineage?run=r1&vertex=%s&dir=%s", p.base, nm.Name(v), dir), &lin)
			want := len(repro.UpstreamByLabels(l, v))
			if dir == "down" {
				want = len(repro.DownstreamByLabels(l, v))
			}
			if lin.Count != want {
				t.Fatalf("/lineage(%s,%s) = %d, in-process engine says %d", nm.Name(v), dir, lin.Count, want)
			}
		}
	}

	// Overwrite over the wire: the replacement run answers immediately.
	r2, _ := repro.GenerateRun(s, rng, 120)
	doc.Reset()
	if err := repro.WriteRunXML(&doc, r2, nil, "paper"); err != nil {
		t.Fatal(err)
	}
	if status, _ := putRunDoc(t, p.base, "r1", doc.String()); status != 200 {
		t.Fatalf("overwriting PUT: %d", status)
	}
	var detail struct {
		Vertices int `json:"vertices"`
	}
	getJSON(t, p.base+"/runs?run=r1", &detail)
	if detail.Vertices != r2.NumVertices() {
		t.Fatalf("after over-the-wire overwrite: %d vertices, want %d", detail.Vertices, r2.NumVertices())
	}
}

// deleteRunReq issues DELETE /runs/{name} against a live provserve.
func deleteRunReq(t *testing.T, base, name string) (status int, body map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/runs/"+name, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body = map[string]any{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("DELETE %s: status %d, unreadable body: %v", name, resp.StatusCode, err)
	}
	return resp.StatusCode, body
}

// TestDeleteEndToEnd is the over-the-wire run-lifecycle differential
// test: PUT -> query -> DELETE -> 404 -> re-PUT -> query, with the
// queries after the round trip matching the in-process core engine on
// the replacement run — the full CRUD cycle of one name across the HTTP
// boundary.
func TestDeleteEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	s := repro.PaperSpec()
	if _, err := repro.CreateStore(filepath.Join(dir, "seed"), s, "paper"); err != nil {
		t.Fatal(err)
	}
	bin := buildProvserve(t, dir)
	p := startProvserve(t, bin, "-store", "mem://"+filepath.Join(dir, "seed"), "-ingest")

	rng := rand.New(rand.NewSource(55))
	r1, _ := repro.GenerateRun(s, rng, 180)
	var doc bytes.Buffer
	if err := repro.WriteRunXML(&doc, r1, nil, "paper"); err != nil {
		t.Fatal(err)
	}
	if status, body := putRunDoc(t, p.base, "cycle", doc.String()); status != 200 {
		t.Fatalf("PUT: %d %v", status, body)
	}
	var reach struct {
		Reachable bool `json:"reachable"`
	}
	getJSON(t, p.base+"/reachable?run=cycle&from=0&to=1", &reach) // run serves (and is now hot)

	// DELETE on a read path: deleting is refused without -ingest; that
	// variant is covered in-process. Here the ingest server deletes.
	status, body := deleteRunReq(t, p.base, "cycle")
	if status != 200 || body["deleted"] != true {
		t.Fatalf("DELETE: %d %v", status, body)
	}
	// Gone on every surface, and a second DELETE is 404.
	resp, err := http.Get(p.base + "/reachable?run=cycle&from=0&to=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("query after delete = %d, want 404", resp.StatusCode)
	}
	if status, _ := deleteRunReq(t, p.base, "cycle"); status != 404 {
		t.Fatalf("second DELETE = %d, want 404", status)
	}
	var runs struct {
		Runs []string `json:"runs"`
	}
	getJSON(t, p.base+"/runs", &runs)
	if len(runs.Runs) != 0 {
		t.Fatalf("/runs after delete = %v", runs.Runs)
	}

	// Re-PUT under the same name: the replacement must answer exactly
	// like the in-process engine labeling the same run.
	r2, _ := repro.GenerateRun(s, rng, 120)
	doc.Reset()
	if err := repro.WriteRunXML(&doc, r2, nil, "paper"); err != nil {
		t.Fatal(err)
	}
	if status, _ := putRunDoc(t, p.base, "cycle", doc.String()); status != 200 {
		t.Fatalf("re-PUT: %d", status)
	}
	l, err := repro.LabelRun(r2, repro.TCM)
	if err != nil {
		t.Fatal(err)
	}
	n := r2.NumVertices()
	for q := 0; q < 40; q++ {
		u, v := repro.VertexID(rng.Intn(n)), repro.VertexID(rng.Intn(n))
		getJSON(t, fmt.Sprintf("%s/reachable?run=cycle&from=%d&to=%d", p.base, u, v), &reach)
		if want := l.Reachable(u, v); reach.Reachable != want {
			t.Fatalf("after delete+re-PUT, (%d,%d) = %v, in-process engine says %v", u, v, reach.Reachable, want)
		}
	}
}

// TestDeleteWarmRestartEndToEnd is the restart regression with the
// real binary: PUT two runs, delete one, SIGTERM, and start a fresh
// process over the same directory. The restarted server loads the
// surviving run on its first query and must answer it byte for byte as
// before the restart; the deleted run must answer 404.
func TestDeleteWarmRestartEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	if _, err := repro.CreateStore(storeDir, repro.PaperSpec(), "paper"); err != nil {
		t.Fatal(err)
	}
	bin := buildProvserve(t, dir)
	p := startProvserve(t, bin, "-store", storeDir, "-ingest")

	rng := rand.New(rand.NewSource(66))
	for _, name := range []string{"keeper", "victim"} {
		r, _ := repro.GenerateRun(repro.PaperSpec(), rng, 120)
		var doc bytes.Buffer
		if err := repro.WriteRunXML(&doc, r, nil, "paper"); err != nil {
			t.Fatal(err)
		}
		if status, _ := putRunDoc(t, p.base, name, doc.String()); status != 200 {
			t.Fatalf("ingest %s failed", name)
		}
	}
	paths := []string{
		"/runs/keeper",
		"/reachable?run=keeper&from=0&to=1",
		"/lineage?run=keeper&vertex=0&dir=down",
	}
	before := make([]string, len(paths))
	for i, path := range paths {
		before[i] = getRaw(t, p.base+path)
	}
	if status, _ := deleteRunReq(t, p.base, "victim"); status != 200 {
		t.Fatal("delete failed")
	}
	p.shutdown(t)

	p2 := startProvserve(t, bin, "-store", storeDir)
	for i, path := range paths {
		if got := getRaw(t, p2.base+path); got != before[i] {
			t.Fatalf("GET %s after restart = %s, want %s", path, got, before[i])
		}
	}
	resp, err := http.Get(p2.base + "/reachable?run=victim&from=0&to=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("deleted run after restart = %d, want 404", resp.StatusCode)
	}
}
