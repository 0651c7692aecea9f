package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/lineage"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/rpq"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
	"repro/internal/xmlio"
)

// The traced run is a separate invocation from the timed one. For each
// sampled op it first calls the layers directly, in the order the server
// calls them (the replay), then sends the same op through ServeHTTP over
// a timing store.Backend decorator and a probe-counting label.Scheme.
// A layer's time is its replay span; the server's self time is the
// ServeHTTP span minus the replay spans of the same op.

// span is one timed interval. Spans of one op share Req; backend calls
// made inside ServeHTTP have the ServeHTTP span as Parent.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Probe  bool   `json:"probe,omitempty"`
}

// tracer keeps spans in memory until the run ends, and per-metric
// samples split by whether they came from the workload's own ops or
// from the probe.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	active bool
	probe  bool
	req    int
	parent int // open ServeHTTP span, parent of backend spans
	spans  []span
	own    map[string][]float64
	probed map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), own: map[string][]float64{}, probed: map[string][]float64{}}
}

func (t *tracer) start(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Req: t.req, ID: len(t.spans) + 1, Parent: parent,
		Start: int64(time.Since(t.epoch)), Probe: t.probe,
	})
	return len(t.spans)
}

func (t *tracer) stop(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return time.Duration(s.End - s.Start)
}

// sample records one value of a per-layer metric.
func (t *tracer) sample(metric string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.probe {
		t.probed[metric] = append(t.probed[metric], v)
	} else {
		t.own[metric] = append(t.own[metric], v)
	}
}

// values returns a metric's samples from the workload's own ops, or the
// probe's when the workload never reached that layer.
func (t *tracer) values(metric string) []float64 {
	if v := t.own[metric]; len(v) > 0 {
		return v
	}
	return t.probed[metric]
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingBackend decorates a store.Backend: while the tracer is active,
// every call becomes a span nested in the open ServeHTTP span and is
// counted, with the bytes it writes.
type timingBackend struct {
	store.Backend
	t            *tracer
	reads, other atomic.Int64
	written      atomic.Int64
}

func (b *timingBackend) call(name string, read bool, n int, fn func() error) error {
	if !b.t.active {
		return fn()
	}
	id := b.t.start("store."+name, b.t.parent)
	err := fn()
	d := b.t.stop(id)
	if read {
		b.reads.Add(1)
	} else {
		b.other.Add(1)
	}
	b.written.Add(int64(n))
	b.t.sample("store."+name, float64(d.Nanoseconds()))
	return err
}

func (b *timingBackend) read(name string, fn func() (io.ReadCloser, error)) (rc io.ReadCloser, err error) {
	err = b.call(name, true, 0, func() error { rc, err = fn(); return err })
	return rc, err
}

func (b *timingBackend) ReadSpec() (io.ReadCloser, error) {
	return b.read("ReadSpec", b.Backend.ReadSpec)
}

func (b *timingBackend) ReadRun(name string) (io.ReadCloser, error) {
	return b.read("ReadRun", func() (io.ReadCloser, error) { return b.Backend.ReadRun(name) })
}

func (b *timingBackend) ReadLabels(name string) (io.ReadCloser, error) {
	return b.read("ReadLabels", func() (io.ReadCloser, error) { return b.Backend.ReadLabels(name) })
}

func (b *timingBackend) ReadMeta(name string) (io.ReadCloser, error) {
	return b.read("ReadMeta", func() (io.ReadCloser, error) { return b.Backend.ReadMeta(name) })
}

func (b *timingBackend) ReadEventLog(name string) (io.ReadCloser, error) {
	return b.read("ReadEventLog", func() (io.ReadCloser, error) { return b.Backend.ReadEventLog(name) })
}

func (b *timingBackend) ListRuns() (names []string, err error) {
	err = b.call("ListRuns", true, 0, func() error { names, err = b.Backend.ListRuns(); return err })
	return names, err
}

func (b *timingBackend) ListEventLogs() (names []string, err error) {
	err = b.call("ListEventLogs", true, 0, func() error { names, err = b.Backend.ListEventLogs(); return err })
	return names, err
}

func (b *timingBackend) WriteSpec(data []byte) error {
	return b.call("WriteSpec", false, len(data), func() error { return b.Backend.WriteSpec(data) })
}

func (b *timingBackend) WriteRun(name string, runDoc, labels []byte) error {
	return b.call("WriteRun", false, len(runDoc)+len(labels), func() error { return b.Backend.WriteRun(name, runDoc, labels) })
}

func (b *timingBackend) WriteMeta(name string, data []byte) error {
	return b.call("WriteMeta", false, len(data), func() error { return b.Backend.WriteMeta(name, data) })
}

func (b *timingBackend) AppendEventLog(name string, data []byte) error {
	return b.call("AppendEventLog", false, len(data), func() error { return b.Backend.AppendEventLog(name, data) })
}

func (b *timingBackend) DeleteRun(name string) error {
	return b.call("DeleteRun", false, 0, func() error { return b.Backend.DeleteRun(name) })
}

func (b *timingBackend) DeleteEventLog(name string) error {
	return b.call("DeleteEventLog", false, 0, func() error { return b.Backend.DeleteEventLog(name) })
}

// countingScheme wraps a label.Scheme so every skeleton probe the
// labelings it builds answer is counted.
type countingScheme struct {
	label.Scheme
	probes *atomic.Int64
}

func (s countingScheme) Build(g *dag.Graph) (label.Labeling, error) {
	l, err := s.Scheme.Build(g)
	if err != nil {
		return nil, err
	}
	return countingLabeling{l, s.probes}, nil
}

type countingLabeling struct {
	label.Labeling
	probes *atomic.Int64
}

func (l countingLabeling) Reachable(u, v dag.VertexID) bool {
	l.probes.Add(1)
	return l.Labeling.Reachable(u, v)
}

// replayed is one run as the replay's cold-load chain rebuilt it.
type replayed struct {
	run    *run.Run
	labels *core.Labeling
}

// tracedBench drives one traced server and replays each op's layers.
type tracedBench struct {
	*bench
	t       *tracer
	tb      *timingBackend
	inner   store.Backend // the server's backend, undecorated, for replay reads
	probes  atomic.Int64
	skel    label.Labeling // replay skeleton, uncounted
	scratch *store.Store   // replay writes land here, never in the server's store
	stream  *live.Session
	runs    map[string]*replayed
	busy    time.Duration // summed ServeHTTP time of the workload's own ops
}

// newTracedBench sets up a server over the timing backend and the
// counting scheme; a probe bench starts empty and accepts writes.
func newTracedBench(in *inputs, t *tracer, probe bool) (*tracedBench, error) {
	tb := &tracedBench{bench: newBench(in), t: t, runs: map[string]*replayed{}}
	tb.tb = &timingBackend{Backend: store.NewMemBackend(), t: t}
	tb.inner = tb.tb.Backend
	var err error
	if tb.skel, err = (label.TCM{}).Build(in.spec.Graph); err != nil {
		return nil, err
	}
	if tb.scratch, err = store.New(store.NewMemBackend(), in.spec, specName); err != nil {
		return nil, err
	}
	if _, err := tb.setup(tb.tb, countingScheme{label.TCM{}, &tb.probes}, probe); err != nil {
		return nil, err
	}
	return tb, nil
}

// micros converts a duration to the unit most metrics report.
func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// step runs fn as a replay span of the current op, records its time as
// a sample of the named layer metric unless record is false, and adds
// it to total.
func (tb *tracedBench) step(parent int, name string, record bool, total *time.Duration, fn func() error) error {
	id := tb.t.start(name, parent)
	err := fn()
	d := tb.t.stop(id)
	if err != nil {
		return fmt.Errorf("replay %s: %w", name, err)
	}
	*total += d
	if record {
		tb.t.sample(name, float64(d.Nanoseconds()))
	}
	return nil
}

// mallocs reads the cumulative allocation count (stops the world; only
// ever called between spans).
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// load runs the cold-load chain against the server's backend, as
// store.OpenRun and the server's session load do. With parent 0 it
// rebuilds the replay's copy without recording anything.
func (tb *tracedBench) load(parent int, name string) (*replayed, time.Duration, error) {
	var rc io.ReadCloser
	var raw []byte
	var r *run.Run
	var snap *core.Snapshot
	var l *core.Labeling
	var total time.Duration
	steps := []struct {
		name string
		fn   func() error
	}{
		{"store.read_run", func() error {
			var err error
			if rc, err = tb.inner.ReadRun(name); err != nil {
				return err
			}
			lc, err := tb.inner.ReadLabels(name)
			if err != nil {
				return err
			}
			defer lc.Close()
			raw, err = io.ReadAll(lc)
			return err
		}},
		{"xmlio.decode_run", func() error {
			defer rc.Close()
			var err error
			r, _, err = xmlio.DecodeRun(rc, tb.in.spec)
			return err
		}},
		{"core.snapshot_decode", func() error {
			var err error
			snap, err = core.DecodeSnapshot(raw)
			return err
		}},
		{"core.bind", func() error {
			var err error
			l, err = snap.Bind(tb.skel)
			return err
		}},
		{"run.namer", func() error { run.NewNamer(r); return nil }},
	}
	for _, s := range steps {
		var err error
		if parent == 0 {
			err = s.fn()
		} else {
			err = tb.step(parent, s.name, true, &total, s.fn)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	rp := &replayed{run: r, labels: l}
	tb.runs[name] = rp
	return rp, total, nil
}

// replayPut runs the PUT chain: decode (which validates), the store's
// own validate, plan construction, labeling, snapshot encode, document
// encode and the backend write.
func (tb *tracedBench) replayPut(parent int, t *tmpl) (time.Duration, error) {
	sp := tb.in.spec
	var r *run.Run
	var p *plan.Plan
	var l *core.Labeling
	var snap, doc bytes.Buffer
	var total time.Duration
	steps := []struct {
		name   string
		allocs string
		fn     func() error
	}{
		{"xmlio.decode_run", "xmlio.decode_allocs", func() error {
			var err error
			r, _, err = xmlio.DecodeRun(bytes.NewReader(t.body), sp)
			return err
		}},
		{"run.validate", "", func() error { return r.Validate() }},
		{"plan.construct", "plan.construct_allocs", func() error {
			var err error
			p, err = plan.Construct(sp, r.Graph, r.Origin)
			return err
		}},
		{"core.label", "", func() error {
			var err error
			l, err = core.LabelRunWithPlan(r, p, tb.skel)
			return err
		}},
		{"core.snapshot_encode", "", func() error { _, err := l.WriteTo(&snap); return err }},
		{"xmlio.encode_run", "", func() error { return xmlio.EncodeRun(&doc, r, nil, specName) }},
		// The server's own WriteRun is timed by the decorator; this one
		// only completes the chain subtracted from the PUT's span.
		{"replay.write_run", "", func() error { return tb.scratch.Backend().WriteRun(t.run, doc.Bytes(), snap.Bytes()) }},
	}
	for _, s := range steps {
		var before uint64
		if s.allocs != "" {
			before = mallocs()
		}
		if err := tb.step(parent, s.name, true, &total, s.fn); err != nil {
			return 0, err
		}
		if s.allocs != "" {
			tb.t.sample(s.allocs, float64(mallocs()-before))
		}
	}
	return total, nil
}

// replayStream applies an append, finish or delete to the replay's own
// live session over the scratch store.
func (tb *tracedBench) replayStream(parent int, t *tmpl) (time.Duration, error) {
	var total time.Duration
	switch t.kind {
	case kAppend:
		if tb.stream == nil {
			tb.stream = live.NewSession(tb.scratch, t.run, tb.skel, live.NewRegistry().Gauges())
		}
		var evs []events.Event
		if err := tb.step(parent, "events.parse", true, &total, func() error {
			var err error
			evs, err = events.ReadLogLimits(bytes.NewReader(t.body), 4096, 1<<20)
			return err
		}); err != nil {
			return 0, err
		}
		if err := tb.step(parent, "live.append", true, &total, func() error {
			_, err := tb.stream.Append(evs, tb.stream.Seq())
			return err
		}); err != nil {
			return 0, err
		}
		// The server checkpoints at its default interval of 256 events.
		if tb.stream.SinceCheckpoint() >= 256 {
			if err := tb.step(parent, "live.checkpoint", true, &total, tb.stream.Checkpoint); err != nil {
				return 0, err
			}
		}
	case kFinish:
		if err := tb.step(parent, "live.finish", true, &total, func() error {
			_, err := tb.stream.Finish(label.TCM{})
			return err
		}); err != nil {
			return 0, err
		}
		tb.stream = nil
	case kDelete:
		if err := tb.step(parent, "replay.delete", false, &total, func() error { return tb.scratch.DeleteRun(t.run) }); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// replayQuery evaluates a query directly on the replayed labels.
func (tb *tracedBench) replayQuery(parent int, t *tmpl, rp *replayed) (time.Duration, error) {
	var total time.Duration
	l := rp.labels
	switch t.kind {
	case kReach, kBatch:
		pairs := t.pairs
		if t.kind == kReach {
			pairs = [][2]dag.VertexID{{t.u, t.v}}
		}
		var out []bool
		if err := tb.step(parent, "core.reachable", false, &total, func() error {
			out = l.AppendReachableBatch(out[:0], pairs, 1)
			return nil
		}); err != nil {
			return 0, err
		}
		// One probe is below the clock's resolution; time a repeat.
		const reps = 64
		start := time.Now()
		for i := 0; i < reps; i++ {
			out = l.AppendReachableBatch(out[:0], pairs, 1)
		}
		tb.t.sample("core.reachable_ns", float64(time.Since(start).Nanoseconds())/float64(reps*len(pairs)))
		byCtx := 0
		for _, p := range pairs {
			if l.AnsweredByContext(p[0], p[1]) {
				byCtx++
			}
		}
		tb.t.sample("core.by_context", float64(byCtx))
		tb.t.sample("label.pairs", float64(len(pairs)))
	case kLineage:
		var cone []dag.VertexID
		if err := tb.step(parent, "lineage.cone", true, &total, func() error {
			if t.up {
				cone = lineage.UpstreamByLabels(l, t.v)
			} else {
				cone = lineage.DownstreamByLabels(l, t.v)
			}
			return nil
		}); err != nil {
			return 0, err
		}
		tb.t.sample("lineage.cone_vertices", float64(len(cone)))
	case kRPQ:
		sp := tb.in.spec
		var prog *rpq.Prog
		if err := tb.step(parent, "rpq.compile", true, &total, func() error {
			var err error
			prog, err = rpq.Compile(t.pattern, func(name string) (dag.VertexID, bool) {
				return sp.VertexOf(spec.ModuleName(name))
			})
			return err
		}); err != nil {
			return 0, err
		}
		m := rpq.NewMatcher(prog, 0)
		if err := tb.step(parent, "rpq.eval", true, &total, func() error {
			_, err := m.Eval(rp.run.Graph, rp.run.Origin, l.Reachable, t.u, t.v)
			return err
		}); err != nil {
			return 0, err
		}
		tb.t.sample("rpq.dfa_states", float64(m.NumDFAStates()))
	}
	return total, nil
}

// op replays one op's layers, then sends it through ServeHTTP.
func (tb *tracedBench) op(id int) error {
	t := tb.in.tmpls[id]
	tb.t.req++
	root := tb.t.start("replay."+t.kind.String(), 0)
	var replay time.Duration
	var err error
	switch {
	case t.kind == kPut:
		replay, err = tb.replayPut(root, t)
		delete(tb.runs, t.run)
	case !t.kind.isQuery():
		replay, err = tb.replayStream(root, t)
		delete(tb.runs, t.run)
	default:
		// The server misses exactly when the cache model says so; only
		// then does the cold-load chain belong to this op.
		hit := slices.Contains(tb.model.names, t.run)
		rp := tb.runs[t.run]
		if !hit || rp == nil {
			parent := root
			if hit {
				parent = 0
			}
			var d time.Duration
			rp, d, err = tb.load(parent, t.run)
			replay += d
		}
		if err == nil {
			var d time.Duration
			d, err = tb.replayQuery(root, t, rp)
			replay += d
		}
	}
	tb.t.stop(root)
	if err != nil {
		return err
	}

	before := tb.srv.Stats()
	reads, written, probes := tb.tb.reads.Load(), tb.tb.written.Load(), tb.probes.Load()
	sid := tb.t.start("server.ServeHTTP "+t.kind.String(), 0)
	tb.t.parent = sid
	d := tb.serve(id)
	tb.t.parent = 0
	span := tb.t.stop(sid)
	tb.model.apply(t)
	tb.check(id)
	after := tb.srv.Stats()
	if !tb.t.probe {
		tb.busy += d
	}
	self := float64((span - replay).Nanoseconds())
	switch t.kind {
	case kPut:
		tb.t.sample("server.put_self", self)
	case kReach, kBatch, kLineage, kRPQ:
		tb.t.sample("server.query_self", self)
		tb.t.sample("server.cache_hits", float64(after.Hits-before.Hits))
		tb.t.sample("server.cache_misses", float64(after.Misses-before.Misses))
		tb.t.sample("server.evictions", float64(after.Evictions-before.Evictions))
		tb.t.sample("store.backend_reads", float64(tb.tb.reads.Load()-reads))
		if t.kind == kReach || t.kind == kBatch {
			tb.t.sample("label.probes", float64(tb.probes.Load()-probes))
		}
	}
	switch t.kind {
	case kPut, kAppend, kFinish:
		tb.t.sample("store.bytes_written", float64(tb.tb.written.Load()-written))
		tb.t.sample("store.body_bytes", float64(len(t.body)))
	}
	return nil
}

// untracedPass replays the sampled ops on a plain server, for the
// runtime counters and the untraced side of the tracing overhead. It
// repeats them for at least a second, so GC cycles show in the counters;
// the ops end on a job boundary, so a repeat is valid.
func untracedPass(in *inputs, ops []int) (busy, wall time.Duration, passes int, ms0, ms1 runtime.MemStats, err error) {
	b := newBench(in)
	if _, err = b.setup(store.NewMemBackend(), label.TCM{}, false); err != nil {
		return
	}
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for wall < time.Second {
		for _, id := range ops {
			busy += b.serve(id)
		}
		passes++
		wall = time.Since(start)
	}
	runtime.ReadMemStats(&ms1)
	return
}

// tracedResult is what the traced run measured.
type tracedResult struct {
	metrics   []metric
	attempted int
	failed    int
	firstErr  error
}

// tracedRun measures every per-layer metric on the workload's inputs:
// the first sz.traceOps ops of the timed sequence on a traced server
// set up like the timed one, then the probe on a second, empty one.
func tracedRun(in *inputs, tracePath string) (*tracedResult, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ops := in.seq[:min(len(in.seq), in.w.sz.traceOps)]
	// End the sample on a job boundary: no stream left half-written.
	for len(ops) > 0 {
		if k := in.tmpls[ops[len(ops)-1]].kind; k != kAppend && k != kFinish {
			break
		}
		ops = ops[:len(ops)-1]
	}
	plainBusy, wall, passes, ms0, ms1, err := untracedPass(in, ops)
	if err != nil {
		return nil, err
	}

	t := newTracer()
	own, err := newTracedBench(in, t, false)
	if err != nil {
		return nil, err
	}
	t.active = true
	for _, id := range ops {
		if err := own.op(id); err != nil {
			return nil, err
		}
	}
	t.active = false
	probe, err := newTracedBench(in, t, true)
	if err != nil {
		return nil, err
	}
	t.active, t.probe = true, true
	for _, id := range in.probe {
		if err := probe.op(id); err != nil {
			return nil, err
		}
	}
	t.active = false
	if tracePath != "" {
		if err := t.write(tracePath); err != nil {
			return nil, err
		}
	}

	n := float64(len(ops))
	plainOps := n * float64(passes)
	med := func(name string, scale float64) float64 { return median(t.values(name)) / scale }
	sum := func(name string) float64 {
		s := 0.0
		for _, v := range t.values(name) {
			s += v
		}
		return s
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits, misses := sum("server.cache_hits"), sum("server.cache_misses")
	queries := float64(len(t.values("server.query_self")))
	m := []metric{
		{"xmlio.decode_run_ms", med("xmlio.decode_run", 1e6), "ms"},
		{"xmlio.decode_allocs", med("xmlio.decode_allocs", 1), "count"},
		{"xmlio.encode_run_ms", med("xmlio.encode_run", 1e6), "ms"},
		{"run.validate_ms", med("run.validate", 1e6), "ms"},
		{"run.namer_us", med("run.namer", 1e3), "us"},
		{"plan.construct_ms", med("plan.construct", 1e6), "ms"},
		{"plan.construct_allocs", med("plan.construct_allocs", 1), "count"},
		{"core.label_ms", med("core.label", 1e6), "ms"},
		{"core.snapshot_encode_ms", med("core.snapshot_encode", 1e6), "ms"},
		{"core.snapshot_decode_us", med("core.snapshot_decode", 1e3), "us"},
		{"core.bind_us", med("core.bind", 1e3), "us"},
		{"core.reachable_ns", med("core.reachable_ns", 1), "ns"},
		{"core.context_answer_ratio", ratio(sum("core.by_context"), sum("label.pairs")), "ratio"},
		{"label.skeleton_probes_per_pair", ratio(sum("label.probes"), sum("label.pairs")), "ratio"},
		{"events.parse_us", med("events.parse", 1e3), "us"},
		{"live.append_us", med("live.append", 1e3), "us"},
		{"live.finish_ms", med("live.finish", 1e6), "ms"},
		{"store.write_run_us", med("store.WriteRun", 1e3), "us"},
		{"store.read_run_us", med("store.read_run", 1e3), "us"},
		{"store.append_event_log_us", med("store.AppendEventLog", 1e3), "us"},
		{"store.bytes_written_per_body_byte", ratio(sum("store.bytes_written"), sum("store.body_bytes")), "ratio"},
		{"store.backend_reads_per_query", ratio(sum("store.backend_reads"), queries), "ratio"},
		{"store.backend_ops", float64(own.tb.reads.Load() + own.tb.other.Load() + probe.tb.reads.Load() + probe.tb.other.Load()), "count"},
		{"lineage.cone_us", med("lineage.cone", 1e3), "us"},
		{"lineage.cone_vertices", med("lineage.cone_vertices", 1), "count"},
		{"rpq.compile_us", med("rpq.compile", 1e3), "us"},
		{"rpq.eval_us", med("rpq.eval", 1e3), "us"},
		{"rpq.dfa_states", med("rpq.dfa_states", 1), "count"},
		{"server.put_self_ms", med("server.put_self", 1e6), "ms"},
		{"server.query_self_us", med("server.query_self", 1e3), "us"},
		{"server.cache_hit_ratio", ratio(hits, hits+misses), "ratio"},
		{"server.cache_hits", hits, "count"},
		{"server.cache_misses", misses, "count"},
		{"server.evictions_per_query", ratio(sum("server.evictions"), queries), "ratio"},
		{"runtime.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs) / plainOps, "count"},
		{"runtime.bytes_per_op", float64(ms1.TotalAlloc-ms0.TotalAlloc) / plainOps, "B"},
		{"runtime.gc_pause_ms_per_s", float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6 / wall.Seconds(), "ms/s"},
		{"trace.overhead_ratio", ratio(float64(own.busy)/n, float64(plainBusy)/plainOps) - 1, "ratio"},
	}
	return &tracedResult{
		metrics:   m,
		attempted: own.attempted + probe.attempted,
		failed:    own.failed + probe.failed,
		firstErr:  cmp.Or(own.firstErr, probe.firstErr),
	}, nil
}
