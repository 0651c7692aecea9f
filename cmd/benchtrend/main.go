// Command benchtrend renders the repo's cross-PR benchmark trajectory
// and gates CI on perf regressions.
//
// It reads the checked-in bench/BASELINE_<n>.json lineage (the
// measurement taken just before each PR's changes) plus the current
// BENCH_<n>.json from `make bench-json`, prints markdown trajectory
// tables for ns/op and allocs/op, and — unless -no-gate — compares the
// current run against its embedded pre-PR baseline, exiting nonzero
// when any benchmark regressed beyond tolerance:
//
//	benchtrend -dir bench -current BENCH_6.json -o TREND.md
//	benchtrend -dir bench                 # trajectory only, no gate
//	benchtrend -current BENCH_6.json -tol 0.3 -tol-allocs 0.05
//
// Tolerances are relative slack per metric (0.5 = +50%); wall time
// defaults loose because shared CI runners are noisy, while B/op and
// allocs/op — deterministic under Go's allocator — default tight and
// are the gate's real teeth. Benchmarks present in the baseline but
// missing from the current run (renamed or retired) are tolerated and
// listed, never failed, so refactoring a benchmark does not wedge CI.
// Benchmarks new in the current run have no baseline yet: they are
// listed as new and start gating once a baseline includes them.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
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
		dir       = fs.String("dir", "bench", "directory holding the BASELINE_<n>.json lineage")
		current   = fs.String("current", "", "current BENCH_<n>.json from `make bench-json` (enables the gate)")
		tolNs     = fs.Float64("tol", trend.DefaultTolerance.NsOp, "ns/op regression tolerance (relative, 0.5 = +50%)")
		tolB      = fs.Float64("tol-b", trend.DefaultTolerance.BOp, "B/op regression tolerance")
		tolAllocs = fs.Float64("tol-allocs", trend.DefaultTolerance.AllocsOp, "allocs/op regression tolerance")
		out       = fs.String("o", "", "also write the markdown report here")
		noGate    = fs.Bool("no-gate", false, "render the trajectory only; never exit nonzero")
	)
	if err := fs.Parse(args); err != nil {
		return 2
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
	if *current != "" && !*noGate {
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
			tol := trend.Tolerance{NsOp: *tolNs, BOp: *tolB, AllocsOp: *tolAllocs}
			regs, missing := trend.Gate(baseline, cur.Benches, tol)
			fmt.Fprintf(&b, "Current vs %s, tolerance ns/op +%.0f%% · B/op +%.0f%% · allocs/op +%.0f%%.\n\n",
				baseLabel, tol.NsOp*100, tol.BOp*100, tol.AllocsOp*100)
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
