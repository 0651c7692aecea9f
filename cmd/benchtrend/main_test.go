package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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
		if b.AllocsOp != nil && *b.AllocsOp > 0 {
			allocs := *b.AllocsOp + allocDelta
			b.AllocsOp = &allocs
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
	bOp, allocsOp := int64(1<<30), int64(1<<20)
	doc.Benches["ServerColdRead"] = trend.Bench{NsOp: 1e9, BOp: &bOp, AllocsOp: &allocsOp}
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

// benchOutput is `go test -bench -count=2` output for two of the PR-5
// baseline's benchmarks; the verb sets the faster SKL2 decode run's
// ns/op.
const benchOutput = `goos: linux
goarch: amd64
pkg: repro/internal/core
BenchmarkSnapshotDecode/SKL2/n=4000-2   	     100	    999999 ns/op	  14.23 MB/s	         3.650 bytes/label	   57392 B/op	       2 allocs/op
BenchmarkSnapshotDecode/SKL2/n=4000-2   	     100	     %d ns/op	 335.58 MB/s	         3.650 bytes/label	   57392 B/op	       2 allocs/op
BenchmarkSnapshotEncode/SKL2-2          	     100	    320322 ns/op	  285432 B/op	      22 allocs/op
PASS
ok  	repro/internal/core	0.912s
`

// With -bench, benchtrend records the bench output as -current with the
// matching BASELINE embedded, whatever the gate then decides, and gates
// it against that baseline in the same run.
func TestBenchRecordedAndGated(t *testing.T) {
	dir := fixtureDir(t)
	base, err := trend.ReadFile(filepath.Join(dir, "BASELINE_5.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		decodeNs int
		wantCode int
		wantLine string
	}{
		{"steady", 42410, 0, "PASS: no benchmark regressed"},
		{"regressed", 200000, 1, "**FAIL** SnapshotDecode/SKL2/n=4000: ns/op"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tmp := t.TempDir()
			out, cur := filepath.Join(tmp, "bench.out"), filepath.Join(tmp, "BENCH_5.json")
			if err := os.WriteFile(out, []byte(fmt.Sprintf(benchOutput, tc.decodeNs)), 0o644); err != nil {
				t.Fatal(err)
			}
			code, report, errOut := runTrend(t, "-dir", dir, "-bench", out, "-current", cur)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d\n%s%s", code, tc.wantCode, report, errOut)
			}
			doc, err := trend.ReadFile(cur)
			if err != nil {
				t.Fatal(err)
			}
			if got := doc.Benches["SnapshotDecode/SKL2/n=4000"]; got.NsOp != float64(tc.decodeNs) || got.AllocsOp == nil || *got.AllocsOp != 2 {
				t.Errorf("recorded decode row = %+v", got)
			}
			if doc.Schema != "provbench.v1" || doc.Baseline == nil || !reflect.DeepEqual(doc.Baseline.Benches, base.Benches) {
				t.Errorf("BENCH_5.json lacks the BASELINE_5 benches (schema %q)", doc.Schema)
			}
			for _, want := range []string{
				"Current vs embedded pre-PR baseline",
				`"SnapshotDecode/SKL1/n=4000" is in the baseline but not the current run`,
				tc.wantLine,
			} {
				if !strings.Contains(report, want) {
					t.Errorf("report missing %q:\n%s", want, report)
				}
			}
		})
	}
}

// -bench needs a -current named BENCH_<n>.json with a BASELINE_<n>.json
// in -dir, and bench output that holds benchmark lines.
func TestBenchRejectsBadInput(t *testing.T) {
	dir, tmp := fixtureDir(t), t.TempDir()
	good, empty := filepath.Join(tmp, "good.out"), filepath.Join(tmp, "empty.out")
	if err := os.WriteFile(good, []byte(fmt.Sprintf(benchOutput, 42410)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, []byte("PASS\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-bench", good},
		{"-bench", good, "-current", filepath.Join(tmp, "current.json")},
		{"-bench", good, "-current", filepath.Join(tmp, "BENCH_9.json")},
		{"-bench", empty, "-current", filepath.Join(tmp, "BENCH_5.json")},
	} {
		if code, _, _ := runTrend(t, append([]string{"-dir", dir}, args...)...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
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
