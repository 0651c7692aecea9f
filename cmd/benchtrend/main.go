// Command benchtrend records the repo's benchmarks, renders their
// cross-PR trajectory and gates CI on perf regressions.
//
// It reads the checked-in bench/BASELINE_<n>.json lineage (the
// measurement taken just before each PR's changes) plus the current
// BENCH_<n>.json, prints markdown trajectory tables for ns/op,
// allocs/op and B/op, and, when -current is given, compares the
// current run against its embedded pre-PR baseline, exiting nonzero
// when any benchmark regressed beyond tolerance:
//
//	benchtrend -dir bench -bench bench.out -current BENCH_17.json -o TREND.md
//	benchtrend -dir bench -current BENCH_17.json   # gate an existing file
//	benchtrend -dir bench                          # trajectory only, no gate
//
// With -bench, the `go test -bench` output in that file is first
// written to -current as a provbench.v1 document with
// <dir>/BASELINE_<n>.json embedded as its baseline (n from the -current
// name). The gate's slack is relative per metric (trend.TolNsOp and
// friends): wall time loose because shared CI runners are noisy, B/op
// and allocs/op — deterministic under Go's allocator — tight, the
// gate's real teeth. Benchmarks present in the baseline but missing
// from the current run (renamed or retired) are tolerated and listed,
// never failed, so refactoring a benchmark does not wedge CI.
// Benchmarks new in the current run have no baseline yet: they are
// listed as new and start gating once a baseline includes them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"

	"repro/internal/trend"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtrend", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dir     = fs.String("dir", "bench", "directory holding the BASELINE_<n>.json lineage")
		current = fs.String("current", "", "current BENCH_<n>.json (enables the gate)")
		bench   = fs.String("bench", "", "go test -bench output to record as -current first")
		out     = fs.String("o", "", "also write the markdown report here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *bench != "" {
		if err := record(*bench, *dir, *current); err != nil {
			fmt.Fprintf(stderr, "benchtrend: %v\n", err)
			return 2
		}
	}

	points, err := trend.LoadLineage(*dir, *current)
	if err != nil {
		fmt.Fprintf(stderr, "benchtrend: %v\n", err)
		return 2
	}

	var b strings.Builder
	b.WriteString("# Benchmark trend\n\n")
	fmt.Fprintf(&b, "Lineage: %d point(s) from %s", len(points), *dir)
	if *current != "" {
		fmt.Fprintf(&b, " + current %s", *current)
	}
	b.WriteString(". Each BASELINE_<n> is the measurement taken just before PR n.\n\n")
	b.WriteString("## ns/op\n\n")
	b.WriteString(trend.Table(points, trend.MetricNsOp))
	b.WriteString("\n## allocs/op\n\n")
	b.WriteString(trend.Table(points, trend.MetricAllocsOp))
	b.WriteString("\n## B/op\n\n")
	b.WriteString(trend.Table(points, trend.MetricBOp))

	exit := 0
	if *current != "" {
		cur, err := trend.ReadFile(*current)
		if err != nil {
			fmt.Fprintf(stderr, "benchtrend: %v\n", err)
			return 2
		}
		baseline, baseLabel := gateBaseline(cur, points)
		b.WriteString("\n## Gate\n\n")
		if baseline == nil {
			b.WriteString("No baseline to gate against.\n")
		} else {
			regs, missing := trend.Gate(baseline, cur.Benches)
			fmt.Fprintf(&b, "Current vs %s, tolerance ns/op +%.0f%% · B/op +%.0f%% · allocs/op +%.0f%%.\n\n",
				baseLabel, trend.TolNsOp*100, trend.TolBOp*100, trend.TolAllocsOp*100)
			for _, name := range missing {
				fmt.Fprintf(&b, "- note: %q is in the baseline but not the current run (renamed or retired — tolerated)\n", name)
			}
			for _, name := range slices.Sorted(maps.Keys(cur.Benches)) {
				if _, ok := baseline[name]; !ok {
					fmt.Fprintf(&b, "- note: %q is new (no baseline yet — not gated)\n", name)
				}
			}
			if len(regs) == 0 {
				b.WriteString("- PASS: no benchmark regressed beyond tolerance\n")
			} else {
				for _, r := range regs {
					fmt.Fprintf(&b, "- **FAIL** %s\n", r)
				}
				exit = 1
			}
		}
	}

	report := b.String()
	fmt.Fprint(stdout, report)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(report), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchtrend: %v\n", err)
			return 2
		}
	}
	if exit != 0 {
		fmt.Fprintf(stderr, "benchtrend: FAIL — perf regression beyond tolerance (see report)\n")
	}
	return exit
}

// gateBaseline picks what the current run is gated against: the
// baseline embedded in the BENCH file itself (the measurement taken
// just before this PR, the most honest comparison) when present,
// otherwise the newest checked-in BASELINE point.
func gateBaseline(cur *trend.File, points []trend.Point) (map[string]trend.Bench, string) {
	if cur.Baseline != nil && len(cur.Baseline.Benches) > 0 {
		return cur.Baseline.Benches, "embedded pre-PR baseline"
	}
	// points has "current" appended last; scan backwards past it for
	// the newest baseline point.
	for i := len(points) - 1; i >= 0; i-- {
		if strings.HasSuffix(points[i].Label, "base") {
			return points[i].Benches, points[i].Label
		}
	}
	return nil, ""
}

// record parses the `go test -bench` output in benchOut and writes it
// to current (BENCH_<n>.json) with dir's BASELINE_<n>.json embedded.
func record(benchOut, dir, current string) error {
	seq := trend.SeqOf(current)
	if seq < 0 {
		return fmt.Errorf("-bench needs -current BENCH_<n>.json, got %q", current)
	}
	f, err := os.Open(benchOut)
	if err != nil {
		return err
	}
	defer f.Close()
	benches, err := trend.ParseBench(f)
	if err != nil {
		return fmt.Errorf("%s: %w", benchOut, err)
	}
	baseline, err := trend.ReadFile(filepath.Join(dir, fmt.Sprintf("BASELINE_%d.json", seq)))
	if err != nil {
		return err
	}
	doc := trend.File{Schema: "provbench.v1", Go: runtime.Version(), Benches: benches, Baseline: baseline}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(current, append(enc, '\n'), 0o644)
}
