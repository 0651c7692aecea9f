package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trend"
)

// fixtureDir copies the checked-in PR 3..5 baselines into a temp dir so
// these golden tests keep passing as later PRs extend bench/ with new
// BASELINE_<n>.json files.
func fixtureDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, n := range []string{"BASELINE_3.json", "BASELINE_4.json", "BASELINE_5.json"} {
		b, err := os.ReadFile(filepath.Join("../../bench", n))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, n), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// writeBench renders a provbench.v1 file derived from the PR-5 baseline
// fixture with every metric scaled, embedding the unscaled fixture as
// its baseline — a synthetic "current run" for exit-code tests.
func writeBench(t *testing.T, path string, nsScale float64, allocDelta int64, rename string) {
	t.Helper()
	base, err := trend.ReadFile(filepath.Join("../../bench", "BASELINE_5.json"))
	if err != nil {
		t.Fatal(err)
	}
	benches := map[string]trend.Bench{}
	for name, b := range base.Benches {
		b.NsOp *= nsScale
		if b.AllocsOp > 0 {
			b.AllocsOp += allocDelta
		}
		if name == rename {
			name += "Renamed"
		}
		benches[name] = b
	}
	doc := trend.File{Schema: "provbench.v1", Go: "gotest", Benches: benches, Baseline: base}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func runTrend(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestTrajectoryOverFixtures(t *testing.T) {
	code, out, errOut := runTrend(t, "-dir", fixtureDir(t))
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{
		"| benchmark (ns/op) | PR 3 base | PR 4 base | PR 5 base | Δ |",
		"ServerBatchReachable/pairs=1024",
		"## allocs/op",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestGateImprovementExitsZero(t *testing.T) {
	cur := filepath.Join(t.TempDir(), "BENCH_6.json")
	writeBench(t, cur, 0.8, 0, "")
	code, out, errOut := runTrend(t, "-dir", fixtureDir(t), "-current", cur)
	if code != 0 {
		t.Fatalf("improvement gated: exit %d\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "PASS: no benchmark regressed") {
		t.Errorf("no PASS line:\n%s", out)
	}
}

func TestGateRegressionExitsNonzero(t *testing.T) {
	cur := filepath.Join(t.TempDir(), "BENCH_6.json")
	writeBench(t, cur, 3.0, 100, "")
	code, out, _ := runTrend(t, "-dir", fixtureDir(t), "-current", cur)
	if code == 0 {
		t.Fatalf("3x ns/op + 100 allocs regression passed the gate:\n%s", out)
	}
	if !strings.Contains(out, "**FAIL**") {
		t.Errorf("no FAIL lines:\n%s", out)
	}
}

func TestGateRenamedBenchTolerated(t *testing.T) {
	cur := filepath.Join(t.TempDir(), "BENCH_6.json")
	writeBench(t, cur, 1.0, 0, "ServerIngest")
	code, out, errOut := runTrend(t, "-dir", fixtureDir(t), "-current", cur)
	if code != 0 {
		t.Fatalf("renamed benchmark wedged the gate: exit %d\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, `"ServerIngest" is in the baseline but not the current run`) {
		t.Errorf("renamed bench not noted:\n%s", out)
	}
}

// A benchmark the baseline has never seen (a renamed one included) is
// reported as new and never fails the gate, however slow it is.
func TestGateNewBenchTolerated(t *testing.T) {
	cur := filepath.Join(t.TempDir(), "BENCH_6.json")
	writeBench(t, cur, 1.0, 0, "ServerIngest")
	doc, err := trend.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	doc.Benches["ServerColdRead"] = trend.Bench{NsOp: 1e9, BOp: 1 << 30, AllocsOp: 1 << 20}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runTrend(t, "-dir", fixtureDir(t), "-current", cur)
	if code != 0 {
		t.Fatalf("new benchmark wedged the gate: exit %d\n%s%s", code, out, errOut)
	}
	for _, want := range []string{`"ServerColdRead" is new`, `"ServerIngestRenamed" is new`, "PASS: no benchmark regressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestNoGateNeverFails(t *testing.T) {
	cur := filepath.Join(t.TempDir(), "BENCH_6.json")
	writeBench(t, cur, 10.0, 1000, "")
	code, _, errOut := runTrend(t, "-dir", fixtureDir(t), "-current", cur, "-no-gate")
	if code != 0 {
		t.Fatalf("-no-gate exited %d: %s", code, errOut)
	}
}

func TestReportFileWritten(t *testing.T) {
	out := filepath.Join(t.TempDir(), "TREND.md")
	code, _, errOut := runTrend(t, "-dir", fixtureDir(t), "-o", out)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), "# Benchmark trend") {
		t.Error("written report lacks header")
	}
}
