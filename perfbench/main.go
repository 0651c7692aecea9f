// Command perfbench is the repository's benchmark. It drives
// server.Server.ServeHTTP in-process with pre-built requests (no
// sockets), one closed-loop client, over a store.NewMemBackend store, on
// a seeded op sequence generated before timing, and checks every answer
// against a key computed without the server.
//
//	perfbench --workload ingest|cold-read|hot-read --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// runs the separate traced replay and prints the per-layer metrics. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See README.md beside this file for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

// cli runs the benchmark and returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: ingest, cold-read or hot-read")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "nominal measured seconds; sets the op budget")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer replay instead of the timed run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload ingest|cold-read|hot-read, --seconds > 0, --trace 0|1\n")
		return 2
	}
	spans := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.jsonl", w.name, *seed))
	if err := checkThreadCPU(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res, err := measure(w, *seed, *seconds, *trace == 1, spans, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// measure generates the inputs and runs the timed or the traced run.
func measure(w *workload, seed int64, seconds float64, traced bool, traceOut string, log io.Writer) (*result, error) {
	genStart := time.Now()
	in, err := prepare(w, seed, seconds)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: %d templates, %d warm-up + %d timed ops, inputs in %.1fs\n",
		w.name, seed, len(in.tmpls), len(in.warm), len(in.seq), time.Since(genStart).Seconds())
	var metrics []metric
	res := &result{}
	var firstErr error
	if traced {
		tr, err := tracedRun(in, traceOut)
		if err != nil {
			return nil, err
		}
		metrics, res.Attempted, res.Failed, firstErr = tr.metrics, tr.attempted, tr.failed, tr.firstErr
	} else {
		tr, err := timedRun(in, seconds)
		if err != nil {
			return nil, err
		}
		metrics = endToEnd(tr)
		res.Attempted, res.Failed, firstErr = tr.attempted, tr.failed, tr.firstErr
		summarize(log, in, tr)
	}
	if firstErr != nil {
		fmt.Fprintf(log, "perfbench: first failure: %v\n", firstErr)
	}
	res.Correct = res.Failed == 0
	res.Metrics = map[string]map[string]any{}
	for _, m := range metrics {
		res.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
		fmt.Fprintf(log, "  %-36s %14.4f %s\n", m.name, m.value, m.unit)
	}
	return res, nil
}

// endToEnd derives the end-to-end metrics of a timed run. Every time is
// scaled to the nominal machine by the reference kernel (see ref.go).
func endToEnd(tr *timedResult) []metric {
	setups := make([]float64, len(tr.setups))
	for i, d := range tr.setups {
		setups[i] = d.Seconds() * tr.setupScale[i]
	}
	lat := make([]float64, len(tr.lat))
	busy := 0.0
	for i, d := range tr.lat {
		lat[i] = micros(d) * tr.opScale[i]
		busy += lat[i] / 1e6
	}
	sort.Float64s(lat)
	return []metric{
		{"setup_s", median(setups), "s"},
		{"heap_live_mb", tr.heapBytes / (1 << 20), "MB"},
		{"ops_per_s", float64(len(tr.lat)) / busy, "1/s"},
		{"op_p50_us", quantile(lat, 0.50), "us"},
		{"op_p99_us", quantile(lat, 0.99), "us"},
	}
}

// summarize prints the per-kind breakdown and counters behind the
// end-to-end numbers, with sample counts, in this host's unscaled times.
func summarize(log io.Writer, in *inputs, tr *timedResult) {
	var byKind [nKinds][]float64
	for i, d := range tr.lat {
		k := in.tmpls[in.seq[i]].kind
		byKind[k] = append(byKind[k], micros(d))
	}
	for k, xs := range byKind {
		if len(xs) == 0 {
			continue
		}
		slices.Sort(xs)
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		fmt.Fprintf(log, "  %-8s n=%-7d p50 %10.1f us  p99 %10.1f us  mean %10.1f us\n",
			kind(k), len(xs), quantile(xs, 0.5), quantile(xs, 0.99), sum/float64(len(xs)))
	}
	fmt.Fprintf(log, "  ops %d (p99 over %d samples), serve time %.2fs, timed phase %.2fs, setups %v\n",
		len(tr.lat), len(tr.lat), tr.busy.Seconds(), tr.wall.Seconds(), tr.setups)
	fmt.Fprintf(log, "  reference kernel: scale %.4f over set-up, %.4f over the timed phase (%.0f%% overhead)\n",
		median(tr.setupScale), tr.runScale, 100*float64(refNominal)/tr.runScale/float64(refEvery))
	if tr.vertices > 0 {
		fmt.Fprintf(log, "  vertices made queryable %d (%.0f/s)\n", tr.vertices, float64(tr.vertices)/tr.busy.Seconds())
	}
	fmt.Fprintf(log, "  server cache: hits %d misses %d evictions %d (model: hits %d misses %d evictions %d)\n",
		tr.cache.Hits, tr.cache.Misses, tr.cache.Evictions, tr.model.hits, tr.model.misses, tr.model.evictions)
	if tr.truncated {
		fmt.Fprintf(log, "  WARNING: the timed phase hit its deadline and stopped early\n")
	}
}

// quantile returns the nearest-rank q-quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// median returns the median of xs (unsorted; xs is not modified).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}
