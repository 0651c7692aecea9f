package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
)

// runTool executes one of the cmd/ tools via `go run` and returns its
// combined output. These are end-to-end integration tests of the
// binaries; skipped under -short.
func runTool(t *testing.T, tool string, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("integration test")
	}
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v failed: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func runToolExpectError(t *testing.T, tool string, args ...string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("integration test")
	}
	cmd := exec.Command("go", append([]string{"run", "./cmd/" + tool}, args...)...)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v unexpectedly succeeded:\n%s", tool, args, out)
	}
	return string(out)
}

func TestToolPipeline(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.xml")
	runPath := filepath.Join(dir, "run.xml")

	out := runTool(t, "provgen", "-paper", "-spec", specPath, "-run", runPath, "-size", "80", "-data", "-seed", "5")
	if !strings.Contains(out, "wrote specification") || !strings.Contains(out, "wrote run") {
		t.Fatalf("provgen output unexpected:\n%s", out)
	}
	if _, err := os.Stat(specPath); err != nil {
		t.Fatal(err)
	}

	out = runTool(t, "provquery", "-spec", specPath, "-run", runPath, "-stats", "-from", "a1", "-to", "h1", "-explain")
	for _, want := range []string{"labels: max", "a1 -> h1: reachable", "via: a1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("provquery output missing %q:\n%s", want, out)
		}
	}

	out = runTool(t, "provquery", "-spec", specPath, "-run", runPath, "-upstream", "h1", "-scheme", "Interval")
	if !strings.Contains(out, "was derived from") {
		t.Fatalf("provquery upstream output unexpected:\n%s", out)
	}

	out = runTool(t, "provquery", "-spec", specPath, "-run", runPath, "-affected", "x1")
	if !strings.Contains(out, "items depend on x1") {
		t.Fatalf("provquery affected output unexpected:\n%s", out)
	}
}

func TestToolProvbench(t *testing.T) {
	out := runTool(t, "provbench", "-list")
	for _, want := range []string{"table1", "fig12", "fig20", "online"} {
		if !strings.Contains(out, want) {
			t.Fatalf("provbench -list missing %q", want)
		}
	}
	csvDir := t.TempDir()
	out = runTool(t, "provbench", "-exp", "table1,fig12", "-quick",
		"-sizes", "100,400", "-queries", "2000", "-csv", csvDir)
	for _, want := range []string{"Table 1", "Figure 12", "QBLAST"} {
		if !strings.Contains(out, want) {
			t.Fatalf("provbench output missing %q:\n%s", want, out)
		}
	}
	for _, f := range []string{"table1.csv", "fig12.csv"} {
		data, err := os.ReadFile(filepath.Join(csvDir, f))
		if err != nil {
			t.Fatal(err)
		}
		if len(strings.Split(strings.TrimSpace(string(data)), "\n")) < 2 {
			t.Fatalf("%s has no data rows", f)
		}
	}
}

// TestToolProvserve builds the provserve binary, points it at an fs
// store created through the public Store API (exercising the -store URL
// plumbing), and exercises the HTTP endpoints end to end.
func TestToolProvserve(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()

	// A real on-disk store with one labeled run.
	s := repro.PaperSpec()
	storeDir := filepath.Join(dir, "store")
	storeURL := "fs://" + storeDir
	st, err := repro.CreateStore(storeDir, s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := repro.GenerateRun(s, rand.New(rand.NewSource(2)), 200)
	if err := st.PutRun("r1", r, nil, repro.TCM); err != nil {
		t.Fatal(err)
	}

	bin := filepath.Join(dir, "provserve")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/provserve").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Reserving a port by listen-then-close races with other processes
	// grabbing it back, so retry the whole launch on a fresh port if the
	// daemon dies before becoming healthy.
	var base string
	var cmd *exec.Cmd
	var cmdExited chan struct{} // closed by the per-attempt Wait goroutine
	var logBuf bytes.Buffer
	for attempt := 0; ; attempt++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()

		logBuf.Reset()
		cmd = exec.Command(bin, "-store", storeURL, "-addr", addr)
		cmd.Stdout, cmd.Stderr = &logBuf, &logBuf
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		exited := make(chan struct{})
		cmdExited = exited
		go func(c *exec.Cmd) { c.Wait(); close(exited) }(cmd)
		isDead := func() bool {
			select {
			case <-exited:
				return true
			default:
				return false
			}
		}

		base = "http://" + addr
		healthy := false
		for deadline := time.Now().Add(10 * time.Second); !healthy && !isDead() && time.Now().Before(deadline); {
			if resp, err := http.Get(base + "/healthz"); err == nil {
				resp.Body.Close()
				healthy = true
			} else {
				time.Sleep(50 * time.Millisecond)
			}
		}
		if healthy {
			break
		}
		cmd.Process.Kill()
		<-exited
		if attempt >= 2 {
			t.Fatalf("provserve never became healthy after %d attempts\nlog: %s", attempt+1, logBuf.String())
		}
	}
	defer func() {
		cmd.Process.Kill()
		<-cmdExited // the attempt's goroutine owns cmd.Wait
	}()

	var health struct {
		Store struct {
			Kind string `json:"kind"`
			Path string `json:"path"`
		} `json:"store"`
	}
	getJSON(t, base+"/healthz", &health)
	if health.Store.Kind != "fs" || health.Store.Path != storeDir {
		t.Fatalf("/healthz store = %+v, want fs at %s", health.Store, storeDir)
	}

	var reach struct {
		Reachable bool `json:"reachable"`
	}
	getJSON(t, base+"/reachable?run=r1&from=a1&to=h1", &reach)
	if !reach.Reachable {
		t.Fatal("h1 should depend on a1 (source reaches sink)")
	}

	var batch struct {
		Count   int    `json:"count"`
		Results []bool `json:"results"`
	}
	body := `{"run":"r1","pairs":[["a1","h1"],["h1","a1"]]}`
	bResp, err := http.Post(base+"/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer bResp.Body.Close()
	if bResp.StatusCode != 200 {
		t.Fatalf("/batch: status %d", bResp.StatusCode)
	}
	if err := json.NewDecoder(bResp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if batch.Count != 2 || !batch.Results[0] || batch.Results[1] {
		t.Fatalf("/batch = %+v, want [true false]", batch)
	}

	var lin struct {
		Count int `json:"count"`
	}
	getJSON(t, fmt.Sprintf("%s/lineage?run=r1&vertex=h1&dir=up", base), &lin)
	h1, ok := repro.NewNamer(r).Vertex("h1")
	if !ok {
		t.Fatal("run has no vertex h1")
	}
	if want := len(repro.Upstream(r, h1)); lin.Count != want {
		t.Fatalf("lineage(h1, up) = %d vertices, want %d", lin.Count, want)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestToolQueryPut exercises provquery's -put mode end to end: PUT a
// generated run XML to a live ingest-enabled provserve, then smoke-test
// the ingested run with a /reachable query over the wire.
func TestToolQueryPut(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	s := repro.PaperSpec()
	seedDir := filepath.Join(dir, "seed")
	if _, err := repro.CreateStore(seedDir, s, "paper"); err != nil {
		t.Fatal(err)
	}
	runPath := filepath.Join(dir, "r.xml")
	r, _ := repro.GenerateRun(s, rand.New(rand.NewSource(6)), 150)
	var doc bytes.Buffer
	if err := repro.WriteRunXML(&doc, r, nil, "paper"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(runPath, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	bin := buildProvserve(t, dir)
	p := startProvserve(t, bin, "-store", "mem://"+seedDir, "-ingest")
	out := runTool(t, "provquery", "-put", p.base, "-run", runPath, "-as", "r9", "-from", "a1", "-to", "h1")
	for _, want := range []string{"stored r9", "SKL2 snapshot", "a1 -> h1: reachable"} {
		if !strings.Contains(out, want) {
			t.Fatalf("provquery -put output missing %q:\n%s", want, out)
		}
	}
	out = runToolExpectError(t, "provquery", "-put", p.base, "-run", runPath, "-as", "..bad")
	if !strings.Contains(out, "invalid run name") {
		t.Fatalf("provquery -put invalid name error unexpected:\n%s", out)
	}
	out = runToolExpectError(t, "provquery", "-put", p.base)
	if !strings.Contains(out, "-run") {
		t.Fatalf("provquery -put without -run error unexpected:\n%s", out)
	}

	// -delete retires the run just ingested; a repeat delete reports the
	// 404 instead of pretending success.
	out = runTool(t, "provquery", "-delete", p.base, "-run", "r9")
	if !strings.Contains(out, "deleted r9") {
		t.Fatalf("provquery -delete output unexpected:\n%s", out)
	}
	out = runToolExpectError(t, "provquery", "-delete", p.base, "-run", "r9")
	if !strings.Contains(out, "404") {
		t.Fatalf("provquery -delete of a deleted run should report 404:\n%s", out)
	}
	out = runToolExpectError(t, "provquery", "-delete", p.base)
	if !strings.Contains(out, "-run") {
		t.Fatalf("provquery -delete without -run error unexpected:\n%s", out)
	}
}

// TestToolQueryStore exercises provquery's -store mode: queries answered
// from a store's persisted snapshot labels, across fs and mem store URLs.
func TestToolQueryStore(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	s := repro.PaperSpec()
	st, err := repro.CreateStore(dir, s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := repro.GenerateRun(s, rand.New(rand.NewSource(3)), 120)
	rng := rand.New(rand.NewSource(4))
	if err := st.PutRun("r1", r, repro.RandomData(r, rng, 1.2, 0.3), repro.TCM); err != nil {
		t.Fatal(err)
	}

	for _, url := range []string{dir, "fs://" + dir, "mem://" + dir} {
		out := runTool(t, "provquery", "-store", url, "-run", "r1", "-stats", "-from", "a1", "-to", "h1")
		for _, want := range []string{"labels: max", "a1 -> h1: reachable"} {
			if !strings.Contains(out, want) {
				t.Fatalf("provquery -store %s output missing %q:\n%s", url, want, out)
			}
		}
	}

	out := runToolExpectError(t, "provquery", "-store", dir, "-run", "missing", "-from", "a1", "-to", "h1")
	if !strings.Contains(out, "missing") {
		t.Fatalf("provquery unknown stored run error unexpected:\n%s", out)
	}
	out = runToolExpectError(t, "provquery", "-store", dir)
	if !strings.Contains(out, "-run") {
		t.Fatalf("provquery -store without -run error unexpected:\n%s", out)
	}
}

func TestToolErrors(t *testing.T) {
	out := runToolExpectError(t, "provbench", "-exp", "nope")
	if !strings.Contains(out, "unknown experiment") {
		t.Fatalf("provbench error message unexpected: %s", out)
	}
	out = runToolExpectError(t, "provgen")
	if !strings.Contains(out, "choose") {
		t.Fatalf("provgen error message unexpected: %s", out)
	}
	out = runToolExpectError(t, "provquery")
	if !strings.Contains(out, "required") {
		t.Fatalf("provquery error message unexpected: %s", out)
	}
}

func TestToolProvdot(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.xml")
	runPath := filepath.Join(dir, "run.xml")
	runTool(t, "provgen", "-paper", "-spec", specPath, "-run", runPath, "-size", "40")
	out := runTool(t, "provdot", "-spec", specPath)
	if !strings.HasPrefix(out, "digraph") || !strings.Contains(out, "cluster_f") {
		t.Fatalf("spec DOT malformed:\n%s", out)
	}
	out = runTool(t, "provdot", "-spec", specPath, "-run", runPath, "-what", "run")
	if !strings.Contains(out, "fillcolor") {
		t.Fatalf("run DOT missing context coloring:\n%s", out)
	}
	out = runTool(t, "provdot", "-spec", specPath, "-run", runPath, "-what", "plan")
	if !strings.Contains(out, "shape=box") {
		t.Fatalf("plan DOT missing − boxes:\n%s", out)
	}
	out = runToolExpectError(t, "provdot", "-spec", specPath, "-what", "zzz")
	if !strings.Contains(out, "unknown -what") {
		t.Fatalf("provdot error unexpected: %s", out)
	}
}

func TestToolQueryInteractive(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.xml")
	runPath := filepath.Join(dir, "run.xml")
	runTool(t, "provgen", "-paper", "-spec", specPath, "-run", runPath, "-size", "40")
	cmd := exec.Command("go", "run", "./cmd/provquery", "-spec", specPath, "-run", runPath, "-i")
	cmd.Stdin = strings.NewReader("a1 h1\nh1 a1\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("interactive mode failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "true") || !strings.Contains(string(out), "false") {
		t.Fatalf("interactive output unexpected:\n%s", out)
	}
}

func TestToolGenSynthetic(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "s.xml")
	out := runTool(t, "provgen", "-ng", "40", "-mg", "60", "-tgsize", "5", "-tgdepth", "3", "-spec", specPath)
	if !strings.Contains(out, "nG=40 mG=60 |TG|=5 [TG]=3") {
		t.Fatalf("synthetic parameters not reported:\n%s", out)
	}
	out = runTool(t, "provgen", "-standin", "EBI", "-spec", specPath)
	if !strings.Contains(out, "nG=29 mG=31") {
		t.Fatalf("EBI stand-in parameters wrong:\n%s", out)
	}
}
