package trend

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The checked-in bench/BASELINE_3..5.json files are the golden fixtures:
// real measurements from PRs 3..5, exercised here so the lineage format
// can never drift without a test noticing. They are copied into a temp
// dir so later PRs adding BASELINE_6+.json never change these tables.
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

func TestLoadLineageFixtures(t *testing.T) {
	points, err := LoadLineage(fixtureDir(t), "")
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 3 {
		t.Fatalf("want >= 3 baseline points, got %d", len(points))
	}
	for i, want := range []int{3, 4, 5} {
		if points[i].Seq != want {
			t.Errorf("point %d: seq %d, want %d", i, points[i].Seq, want)
		}
		if points[i].Label != "PR "+string(rune('0'+want))+" base" {
			t.Errorf("point %d: label %q", i, points[i].Label)
		}
		if len(points[i].Benches) == 0 {
			t.Errorf("point %d has no benches", i)
		}
	}
	// Values every fixture must agree on (from the real lineage).
	b3 := points[0].Benches["ServerBatchReachable/pairs=1024"]
	if b3.NsOp != 563822 || *b3.AllocsOp != 2095 {
		t.Errorf("PR 3 base pairs=1024 = %+v, fixture drifted", b3)
	}
	b5 := points[2].Benches["ServerBatchReachable/pairs=1024"]
	if *b5.AllocsOp != 24 {
		t.Errorf("PR 5 base pairs=1024 allocs = %d, want 24", *b5.AllocsOp)
	}
}

func TestTableGolden(t *testing.T) {
	points, err := LoadLineage(fixtureDir(t), "")
	if err != nil {
		t.Fatal(err)
	}
	table := Table(points, MetricNsOp)
	for _, want := range []string{
		"| benchmark (ns/op) | PR 3 base | PR 4 base | PR 5 base | Δ |",
		"| ServerBatchReachable/pairs=1024 | 564µs | 91.7µs | 107µs |",
		"| SnapshotDecode/SKL1/n=16000 |",
	} {
		if !strings.Contains(table, want) {
			t.Errorf("ns/op table missing %q:\n%s", want, table)
		}
	}
	// A benchmark absent from an early point renders as a dash, not a
	// crash or a zero.
	if !strings.Contains(table, "| ServerIngest | — | — |") {
		t.Errorf("missing-early-point rendering wrong:\n%s", table)
	}
	allocs := Table(points, MetricAllocsOp)
	if !strings.Contains(allocs, "| ServerBatchReachable/pairs=1024 | 2095 | 22 | 24 |") {
		t.Errorf("allocs table wrong:\n%s", allocs)
	}
}

func TestGateImprovementPasses(t *testing.T) {
	prev := map[string]Bench{"X": {NsOp: 1000, BOp: n(512), AllocsOp: n(20)}}
	cur := map[string]Bench{"X": {NsOp: 600, BOp: n(256), AllocsOp: n(10)}}
	regs, missing := Gate(prev, cur)
	if len(regs) != 0 || len(missing) != 0 {
		t.Errorf("improvement flagged: regs=%v missing=%v", regs, missing)
	}
}

func TestGateRegressionBeyondTolerance(t *testing.T) {
	prev := map[string]Bench{"X": {NsOp: 10_000, BOp: n(4096), AllocsOp: n(50)}}
	cur := map[string]Bench{"X": {NsOp: 30_000, BOp: n(4096), AllocsOp: n(120)}}
	regs, _ := Gate(prev, cur)
	if len(regs) != 2 {
		t.Fatalf("want ns/op + allocs/op regressions, got %v", regs)
	}
	if regs[0].Metric != "ns/op" || regs[1].Metric != "allocs/op" {
		t.Errorf("wrong metrics: %v", regs)
	}
}

func TestGateNoiseFloors(t *testing.T) {
	// Tiny absolute wobbles must never gate, even when the ratio is
	// huge: 22 -> 24 allocs is +9% but only +2 allocs; 30ns -> 70ns is
	// +133% but under the 50ns floor.
	prev := map[string]Bench{
		"allocs": {NsOp: 1000, AllocsOp: n(22)},
		"fast":   {NsOp: 30},
	}
	cur := map[string]Bench{
		"allocs": {NsOp: 1000, AllocsOp: n(24)},
		"fast":   {NsOp: 70},
	}
	if regs, _ := Gate(prev, cur); len(regs) != 0 {
		t.Errorf("noise-floor wobble gated: %v", regs)
	}
}

// n returns a reported B/op or allocs/op figure.
func n(v int64) *int64 { return &v }

// TestGateZeroBaseline: a reported zero is gated against the absolute
// noise floors, a figure one run did not report is not gated, and the
// failure message does not divide by the zero.
func TestGateZeroBaseline(t *testing.T) {
	prev := map[string]Bench{
		"grows":      {NsOp: 1000, BOp: n(0), AllocsOp: n(0)},
		"wobbles":    {NsOp: 1000, BOp: n(0), AllocsOp: n(0)},
		"unknown":    {NsOp: 1000},
		"unmeasured": {NsOp: 1000, BOp: n(0), AllocsOp: n(0)},
	}
	cur := map[string]Bench{
		"grows":      {NsOp: 1000, BOp: n(128), AllocsOp: n(3)},
		"wobbles":    {NsOp: 1000, BOp: n(32), AllocsOp: n(2)},
		"unknown":    {NsOp: 1000, BOp: n(1 << 20), AllocsOp: n(1000)},
		"unmeasured": {NsOp: 1000},
	}
	regs, _ := Gate(prev, cur)
	if len(regs) != 2 || regs[0].Bench != "grows" || regs[0].Metric != "B/op" || regs[1].Metric != "allocs/op" {
		t.Fatalf("want B/op and allocs/op regressions on grows, got %v", regs)
	}
	if got, want := regs[0].String(), "grows: B/op 0B -> 128B (from zero, tolerance 25%)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// A zero ParseBench reads is recorded as a reported zero, and survives
// a JSON round trip as one.
func TestParseBenchKeepsZero(t *testing.T) {
	got, err := ParseBench(strings.NewReader("BenchmarkCone-2 \t 100 \t 412 ns/op \t 0 B/op \t 0 allocs/op\nBenchmarkPlain-2 \t 100 \t 9 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"Cone":{"ns_op":412,"b_op":0,"allocs_op":0},"Plain":{"ns_op":9}}`; string(raw) != want {
		t.Errorf("recorded %s, want %s", raw, want)
	}
	var back map[string]Bench
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, got) {
		t.Errorf("round trip = %+v, want %+v", back, got)
	}
}

func TestGateMissingBenchTolerated(t *testing.T) {
	prev := map[string]Bench{"Renamed": {NsOp: 1000}, "Kept": {NsOp: 1000}}
	cur := map[string]Bench{"Kept": {NsOp: 900}, "Brand-new": {NsOp: 1}}
	regs, missing := Gate(prev, cur)
	if len(regs) != 0 {
		t.Errorf("unexpected regressions: %v", regs)
	}
	if len(missing) != 1 || missing[0] != "Renamed" {
		t.Errorf("missing = %v, want [Renamed]", missing)
	}
}

// parseInput is captured `go test -bench -count=2` output, with the
// package header, a log line, a benchmark run with GOMAXPROCS=1 (no
// name suffix) and the closing PASS/ok lines around the results.
const parseInput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkServerIngest-2                 	      20	   2802141 ns/op	  54.21 MB/s	  851234 B/op	    5115 allocs/op
BenchmarkServerIngest-2                 	      20	   2650337 ns/op	  57.32 MB/s	  851201 B/op	    5114 allocs/op
BenchmarkServerRPQ/wild-card-2          	      20	     14295 ns/op	   10756 B/op	     100 allocs/op
BenchmarkServerRPQ/wild-card-2          	      20	     15001 ns/op	   10756 B/op	     100 allocs/op
    server_test.go:42: warmed 4 runs
BenchmarkSnapshotDecode/SKL2/n=4000     	     100	     38893 ns/op	 365.93 MB/s	         3.650 bytes/label	   57392 B/op	       2 allocs/op
--- BENCH: BenchmarkServerIngest-2
PASS
ok  	repro	4.201s
`

func TestParseBench(t *testing.T) {
	got, err := ParseBench(strings.NewReader(parseInput))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Bench{
		// The faster of the two runs, with that run's B/op, allocs and MB/s.
		"ServerIngest": {NsOp: 2650337, BOp: n(851201), AllocsOp: n(5114), MBs: 57.32},
		// Only the trailing -N is trimmed, not a dash inside the name.
		"ServerRPQ/wild-card": {NsOp: 14295, BOp: n(10756), AllocsOp: n(100)},
		// Custom metrics (bytes/label) are skipped.
		"SnapshotDecode/SKL2/n=4000": {NsOp: 38893, BOp: n(57392), AllocsOp: n(2), MBs: 365.93},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ParseBench =\n%+v\nwant\n%+v", got, want)
	}
	if _, err := ParseBench(strings.NewReader("goos: linux\nPASS\nok  \trepro\t0.1s\n")); err == nil {
		t.Error("input without benchmark lines accepted")
	}
}

func TestSeqOf(t *testing.T) {
	for path, want := range map[string]int{
		"bench/BASELINE_5.json": 5,
		"BENCH_12.json":         12,
		"whatever.json":         -1,
		"BASELINE_x.json":       -1,
	} {
		if got := SeqOf(path); got != want {
			t.Errorf("SeqOf(%q) = %d, want %d", path, got, want)
		}
	}
}
