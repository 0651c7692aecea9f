package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// tiny returns a copy of the named workload shrunk to run in well under
// a second.
func tiny(t *testing.T, name string) *workload {
	t.Helper()
	w := findWorkload(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	c := *w
	c.sz.runVertices = 120
	c.sz.warm = min(c.sz.warm, 4)
	c.sz.setups = 2
	c.sz.traceOps = 40
	if c.write {
		c.sz.runs, c.sz.putDocs, c.sz.streamDocs = 2, 2, 2
		c.sz.rate = 4
	} else {
		c.sz.runs = min(c.sz.runs, 6)
		c.sz.cacheSize = min(c.sz.cacheSize, 2)
		c.sz.perRun, c.sz.rpqPatterns = 2, 4
		c.sz.rate = 40
	}
	return &c
}

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestEveryMetricTiny runs each workload small, timed and traced, and
// checks the result line names exactly the metrics BENCHMARK.json lists,
// each with its unit, and that every answer was right.
func TestEveryMetricTiny(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range f.Workloads {
		listed = append(listed, w.Name)
	}
	if !slices.Equal(names, listed) {
		t.Fatalf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := map[string]string{}
			if traced {
				for _, m := range f.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range f.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			res, err := measure(tiny(t, w.name), 7, 1, traced, t.TempDir()+"/spans.jsonl", io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
					continue
				}
				if m["unit"] != unit {
					t.Errorf("%s traced=%v: %s unit %v, want %s", w.name, traced, name, m["unit"], unit)
				}
			}
		}
	}
}

// counts are the traced run's deterministic counters.
var counts = []string{"server.cache_hits", "server.cache_misses", "store.backend_ops"}

func tracedCounts(t *testing.T, w *workload, seed int64) (*inputs, map[string]float64) {
	t.Helper()
	in, err := prepare(w, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := tracedRun(in, "")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range tr.metrics {
		if slices.Contains(counts, m.name) {
			got[m.name] = m.value
		}
	}
	return in, got
}

// TestSameSeedSameRun pins determinism: one seed gives the same op
// sequence and the same cache and backend counts; another seed gives
// different inputs.
func TestSameSeedSameRun(t *testing.T) {
	for _, name := range []string{"ingest", "cold-read"} {
		w := tiny(t, name)
		a, ca := tracedCounts(t, w, 3)
		b, cb := tracedCounts(t, w, 3)
		if !slices.Equal(a.seq, b.seq) || len(a.tmpls) != len(b.tmpls) {
			t.Fatalf("%s: same seed, different op sequence", name)
		}
		for i := range a.tmpls {
			if a.tmpls[i].target != b.tmpls[i].target || !bytes.Equal(a.tmpls[i].body, b.tmpls[i].body) {
				t.Fatalf("%s: same seed, template %d differs", name, i)
			}
		}
		for _, k := range counts {
			if ca[k] != cb[k] {
				t.Errorf("%s: %s = %v then %v for the same seed", name, k, ca[k], cb[k])
			}
		}
		if name == "cold-read" && ca["store.backend_ops"] == 0 {
			t.Errorf("cold-read: no backend ops counted")
		}

		c, err := prepare(w, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		same := len(a.tmpls) == len(c.tmpls)
		for i := 0; same && i < len(a.tmpls); i++ {
			same = a.tmpls[i].target == c.tmpls[i].target && bytes.Equal(a.tmpls[i].body, c.tmpls[i].body)
		}
		if same {
			t.Errorf("%s: seeds 3 and 4 generated identical inputs", name)
		}
	}
}

// TestCorruptAnswerFails proves the checker is load-bearing: one wrong
// entry in the answer key makes the run fail.
func TestCorruptAnswerFails(t *testing.T) {
	for _, name := range []string{"ingest", "hot-read"} {
		in, err := prepare(tiny(t, name), 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		x := in.tmpls[in.seq[len(in.seq)-1]]
		switch x.kind {
		case kReach:
			x.reach = !x.reach
		case kBatch:
			x.results[0] = !x.results[0]
		case kLineage:
			x.cone += "\nnope"
		case kRPQ:
			x.match = !x.match
		case kPut, kFinish:
			x.vertices++
		case kAppend:
			x.applied++
		case kDelete:
			x.kind = kPut // a delete reply has no vertex count
			x.vertices = 1
		}
		tr, err := timedRun(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tr.failed == 0 || tr.firstErr == nil {
			t.Errorf("%s: corrupted answer for %s %s went unnoticed", name, x.method, x.target)
		}
	}
}

// TestCacheShape checks the full-size sequences against the cache
// model: cold-read misses on at least 3 in 4 queries, hot-read hits on
// every timed query.
func TestCacheShape(t *testing.T) {
	for _, name := range []string{"cold-read", "hot-read"} {
		w := findWorkload(name)
		in, err := prepare(w, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		m := newLRU(w.sz.cacheSize)
		for _, id := range in.warm {
			m.apply(in.tmpls[id])
		}
		m.hits, m.misses = 0, 0
		for _, id := range in.seq {
			m.apply(in.tmpls[id])
		}
		total := m.hits + m.misses
		switch name {
		case "cold-read":
			if 4*m.misses < 3*total {
				t.Errorf("cold-read: %d misses of %d queries, want at least 3/4", m.misses, total)
			}
		case "hot-read":
			if m.misses != 0 {
				t.Errorf("hot-read: %d misses of %d queries, want none", m.misses, total)
			}
		}
	}
}

// TestReferenceScaling checks that the reference kernel takes the host's
// speed out of the scaled times: a host that runs everything at half
// speed in the second half of a run, kernel included, reports the same
// latency for the same op throughout, away from the switch.
func TestReferenceScaling(t *testing.T) {
	const passes, perPass = 16, 10
	k := &refKernel{}
	var at []int
	var lat []time.Duration
	for j := 0; j < passes; j++ {
		slow := time.Duration(1 + j/(passes/2)) // 1 in the first half, 2 after
		k.times = append(k.times, slow*refNominal)
		at = append(at, j*perPass)
		for range perPass {
			lat = append(lat, slow*100*time.Microsecond)
		}
	}
	scales := k.opScales(0, at, len(lat))
	for i, d := range lat {
		if j := i / perPass; j >= refWindow/2 && j < passes/2-refWindow/2 || j >= passes/2+refWindow/2 {
			if got := micros(d) * scales[i]; math.Abs(got-100) > 1e-9 {
				t.Fatalf("op %d (after pass %d): scaled %.3f us, want 100", i, j, got)
			}
		}
	}
	tr := &timedResult{
		setups: []time.Duration{time.Second}, setupScale: []float64{0.5},
		lat: lat, opScale: scales,
	}
	for _, m := range endToEnd(tr) {
		want := map[string]float64{"setup_s": 0.5, "op_p50_us": 100}[m.name]
		if want != 0 && math.Abs(m.value-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", m.name, m.value, want)
		}
	}
}
