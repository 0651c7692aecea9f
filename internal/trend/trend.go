// Package trend turns the repo's per-PR benchmark artifacts — the
// bench/BASELINE_<n>.json lineage plus the current BENCH_<n>.json
// that `make trend` builds from `go test -bench` output (ParseBench) —
// into a cross-PR perf trajectory table and a regression gate
// (cmd/benchtrend).
//
// The file format is "provbench.v1": a flat benches map of
// name -> {ns_op, b_op, allocs_op, mb_s}, with the pre-PR baseline
// embedded under "baseline". A b_op or allocs_op the benchmark reported
// is written even when it is 0; an absent one was not reported (files
// recorded before zeros were written omit reported zeros too).
// BASELINE_<n>.json is the measurement taken just before PR n's
// changes; comparing consecutive baselines (and the current run)
// therefore renders how each benchmark moved across PRs.
package trend

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Bench is one benchmark's measurements. BOp and AllocsOp are nil when
// the benchmark did not report them.
type Bench struct {
	NsOp     float64 `json:"ns_op"`
	BOp      *int64  `json:"b_op,omitempty"`
	AllocsOp *int64  `json:"allocs_op,omitempty"`
	MBs      float64 `json:"mb_s,omitempty"`
}

// File is one provbench.v1 document.
type File struct {
	Schema   string           `json:"schema"`
	Go       string           `json:"go"`
	Benches  map[string]Bench `json:"benches"`
	Baseline *File            `json:"baseline,omitempty"`
}

// Point is one column of the trajectory: a labeled measurement set.
type Point struct {
	Label   string
	Seq     int
	Benches map[string]Bench
}

// ReadFile parses one provbench.v1 JSON document.
func ReadFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Benches) == 0 {
		return nil, fmt.Errorf("%s: no benches (schema %q)", path, f.Schema)
	}
	return &f, nil
}

var benchLine = regexp.MustCompile(`^Benchmark(\S+)\s+\d+\s+([\d.]+) ns/op(.*)$`)

// ParseBench reads `go test -bench` output and returns each benchmark's
// ns/op, B/op, allocs/op and MB/s, keyed by name without the
// -GOMAXPROCS suffix. When -count ran a benchmark several times the
// fastest run (minimum ns/op) is kept, the conventional way to suppress
// scheduler noise. Lines that are not benchmark results are ignored;
// input with none is an error.
func ParseBench(r io.Reader) (map[string]Bench, error) {
	benches := map[string]Bench{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		b := Bench{NsOp: ns}
		for _, f := range strings.Split(m[3], "\t") {
			val, unit, _ := strings.Cut(strings.TrimSpace(f), " ")
			switch unit {
			case "B/op":
				b.BOp = parseCount(val)
			case "allocs/op":
				b.AllocsOp = parseCount(val)
			case "MB/s":
				b.MBs, _ = strconv.ParseFloat(val, 64)
			}
		}
		name := trimGOMAXPROCS(m[1])
		if prev, ok := benches[name]; !ok || b.NsOp < prev.NsOp {
			benches[name] = b
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return benches, nil
}

// parseCount parses a reported B/op or allocs/op figure; one that does
// not parse counts as not reported.
func parseCount(val string) *int64 {
	n, err := strconv.ParseInt(val, 10, 64)
	if err != nil {
		return nil
	}
	return &n
}

// count returns a B/op or allocs/op figure and whether it was reported.
func count(n *int64) (float64, bool) {
	if n == nil {
		return 0, false
	}
	return float64(*n), true
}

// trimGOMAXPROCS drops the "-8" CPU suffix go test appends to
// benchmark names.
func trimGOMAXPROCS(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

var fileSeq = regexp.MustCompile(`(?:BASELINE|BENCH)_(\d+)\.json$`)

// SeqOf extracts the PR number from a BASELINE_<n>.json or
// BENCH_<n>.json path, -1 when the name does not follow the lineage
// convention.
func SeqOf(path string) int {
	m := fileSeq.FindStringSubmatch(filepath.Base(path))
	if m == nil {
		return -1
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		return -1
	}
	return n
}

// LoadLineage reads every BASELINE_<n>.json in dir (sorted by n,
// labeled "PR n base") and, when currentPath is non-empty, appends that
// file's current benches as the final point (labeled "current"). The
// baselines embedded inside BENCH files are not re-read — the
// checked-in BASELINE files are the canonical lineage.
func LoadLineage(dir, currentPath string) ([]Point, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BASELINE_*.json"))
	if err != nil {
		return nil, err
	}
	var points []Point
	for _, path := range paths {
		seq := SeqOf(path)
		if seq < 0 {
			continue
		}
		f, err := ReadFile(path)
		if err != nil {
			return nil, err
		}
		points = append(points, Point{Label: fmt.Sprintf("PR %d base", seq), Seq: seq, Benches: f.Benches})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Seq < points[j].Seq })
	if len(points) == 0 && currentPath == "" {
		return nil, fmt.Errorf("no BASELINE_<n>.json files in %s", dir)
	}
	if currentPath != "" {
		f, err := ReadFile(currentPath)
		if err != nil {
			return nil, err
		}
		seq := SeqOf(currentPath)
		label := "current"
		if seq >= 0 {
			label = fmt.Sprintf("PR %d (current)", seq)
		}
		points = append(points, Point{Label: label, Seq: seq, Benches: f.Benches})
	}
	return points, nil
}

// The gate's per-metric relative slack: a measurement regresses when
// cur > prev*(1+tol) AND the absolute growth clears a small noise floor
// (50ns, 64 B, 2 allocs) — so a 2-alloc wobble on a 22-alloc benchmark
// or scheduler jitter on a 3µs one never fails CI. A reported zero B/op
// or allocs/op is a baseline like any other: from 0, growth past the
// floor alone regresses. Wall time is deliberately loose (shared CI
// runners are noisy); the deterministic allocation metrics are tighter
// and are the stable regression signal.
const (
	TolNsOp     = 0.50
	TolBOp      = 0.25
	TolAllocsOp = 0.10
)

// noise floors below which absolute growth is never a regression.
const (
	noiseNs     = 50.0
	noiseBytes  = 64.0
	noiseAllocs = 2.0
)

// gated lists the metrics Gate compares, each with its tolerance and
// noise floor.
var gated = []struct {
	metric     Metric
	tol, floor float64
}{
	{MetricNsOp, TolNsOp, noiseNs},
	{MetricBOp, TolBOp, noiseBytes},
	{MetricAllocsOp, TolAllocsOp, noiseAllocs},
}

// Regression is one gate failure.
type Regression struct {
	Bench  string
	Metric string // "ns/op", "B/op", "allocs/op"
	Prev   float64
	Cur    float64
	Tol    float64
}

func (r Regression) String() string {
	growth := "from zero"
	if r.Prev > 0 {
		growth = fmt.Sprintf("+%.1f%%", (r.Cur/r.Prev-1)*100)
	}
	return fmt.Sprintf("%s: %s %s -> %s (%s, tolerance %.0f%%)",
		r.Bench, r.Metric, formatMetric(r.Metric, r.Prev), formatMetric(r.Metric, r.Cur),
		growth, r.Tol*100)
}

// Gate compares cur against prev bench-by-bench. Benchmarks present in
// prev but missing from cur (renamed or retired) are tolerated and
// returned in missing; benchmarks new in cur have no baseline and are
// ignored. A B/op or allocs/op figure is compared when both runs
// reported it.
func Gate(prev, cur map[string]Bench) (regs []Regression, missing []string) {
	names := make([]string, 0, len(prev))
	for name := range prev {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := prev[name]
		c, ok := cur[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		for _, g := range gated {
			prevV, okP := g.metric.of(p)
			curV, okC := g.metric.of(c)
			if okP && okC && curV > prevV*(1+g.tol) && curV-prevV > g.floor {
				regs = append(regs, Regression{Bench: name, Metric: string(g.metric), Prev: prevV, Cur: curV, Tol: g.tol})
			}
		}
	}
	return regs, missing
}

// Metric selects one measurement for Table.
type Metric string

const (
	MetricNsOp     Metric = "ns/op"
	MetricBOp      Metric = "B/op"
	MetricAllocsOp Metric = "allocs/op"
)

func (m Metric) of(b Bench) (float64, bool) {
	switch m {
	case MetricNsOp:
		return b.NsOp, b.NsOp > 0
	case MetricBOp:
		return count(b.BOp)
	case MetricAllocsOp:
		return count(b.AllocsOp)
	}
	return 0, false
}

func formatMetric(metric string, v float64) string {
	switch metric {
	case "ns/op":
		return formatNs(v)
	case "B/op":
		return fmt.Sprintf("%.0fB", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

func formatNs(ns float64) string {
	d := time.Duration(ns)
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%.0fns", ns)
	case d < time.Millisecond:
		return fmt.Sprintf("%.3gµs", ns/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.3gms", ns/1e6)
	default:
		return fmt.Sprintf("%.3gs", ns/1e9)
	}
}

// Table renders one metric's cross-PR trajectory as a GitHub-flavored
// markdown table: one row per benchmark (union over all points, sorted)
// and a final Δ column comparing the last point against the nearest
// earlier point that has the benchmark.
func Table(points []Point, metric Metric) string {
	namesSet := map[string]bool{}
	for _, p := range points {
		for name := range p.Benches {
			namesSet[name] = true
		}
	}
	names := make([]string, 0, len(namesSet))
	for name := range namesSet {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	fmt.Fprintf(&b, "| benchmark (%s) |", metric)
	for _, p := range points {
		fmt.Fprintf(&b, " %s |", p.Label)
	}
	b.WriteString(" Δ |\n|---|")
	for range points {
		b.WriteString("---:|")
	}
	b.WriteString("---:|\n")
	for _, name := range names {
		fmt.Fprintf(&b, "| %s |", name)
		last, prevOfLast := -1.0, -1.0
		for _, p := range points {
			bench, ok := p.Benches[name]
			if !ok {
				b.WriteString(" — |")
				continue
			}
			v, has := metric.of(bench)
			if !has {
				b.WriteString(" — |")
				continue
			}
			fmt.Fprintf(&b, " %s |", formatMetric(string(metric), v))
			prevOfLast, last = last, v
		}
		if last > 0 && prevOfLast > 0 {
			fmt.Fprintf(&b, " %+.1f%% |\n", (last/prevOfLast-1)*100)
		} else {
			b.WriteString(" — |\n")
		}
	}
	return b.String()
}
