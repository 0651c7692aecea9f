package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/label"
	"repro/internal/server"
	"repro/internal/store"
)

// sizes fixes a workload's shape. The op budget is rate × seconds, so
// the same seed and --seconds replay exactly the same requests.
type sizes struct {
	runVertices int
	runs        int // stored runs (ingest: PUT names)
	cacheSize   int // server session cache; 0 keeps the server default (16)
	putDocs     int // ingest: distinct PUT documents
	streamDocs  int // ingest: distinct streamed runs
	perRun      int // reads: templates per kind per stored run
	rpqPatterns int // reads: distinct path patterns
	theta       float64
	mix         [nKinds]int // reads: weight of each query kind
	rate        float64     // ops (ingest: jobs) per --seconds second
	warm        int         // warm-up ops (ingest: jobs), part of set-up
	setups      int         // set-up repetitions; setup_s is their median
	traceOps    int         // timed-sequence ops the traced run replays
}

// workload is one traffic mix; BENCHMARK.json and README.md give the
// reason for each.
type workload struct {
	name  string
	write bool
	sz    sizes
}

var workloads = []*workload{
	{
		name:  "ingest",
		write: true,
		sz: sizes{
			runVertices: 2000, runs: 8, putDocs: 24, streamDocs: 6,
			rate: 34, warm: 8, setups: 5, traceOps: 300,
		},
	},
	{
		name: "cold-read",
		sz: sizes{
			runVertices: 1000, runs: 64, cacheSize: 4, perRun: 8, rpqPatterns: 8, theta: 0.6,
			mix:  [nKinds]int{kReach: 75, kLineage: 25},
			rate: 106, warm: 16, setups: 5, traceOps: 200,
		},
	},
	{
		name: "hot-read",
		sz: sizes{
			runVertices: 5000, runs: 16, perRun: 64, rpqPatterns: 1024, theta: 0,
			mix:  [nKinds]int{kReach: 55, kBatch: 15, kLineage: 10, kRPQ: 20},
			rate: 25000, warm: 400, setups: 5, traceOps: 1000,
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// lru mirrors the server's session cache (exact LRU, loads on query
// misses, PUT and finish refresh only resident entries, DELETE drops),
// so the benchmark knows each query's hit or miss before sending it.
type lru struct {
	max                     int
	names                   []string // most recent first
	hits, misses, evictions int
}

func newLRU(max int) *lru {
	if max <= 0 {
		max = 16
	}
	return &lru{max: max}
}

// apply records one op.
func (c *lru) apply(t *tmpl) {
	i := slices.Index(c.names, t.run)
	switch {
	case t.kind.isQuery() && i >= 0:
		c.hits++
		c.names = slices.Insert(slices.Delete(c.names, i, i+1), 0, t.run)
	case t.kind.isQuery():
		c.misses++
		c.names = slices.Insert(c.names, 0, t.run)
		if len(c.names) > c.max {
			c.names = c.names[:c.max]
			c.evictions++
		}
	case (t.kind == kPut || t.kind == kFinish) && i >= 0:
		c.names = slices.Insert(slices.Delete(c.names, i, i+1), 0, t.run)
	case t.kind == kDelete && i >= 0:
		c.names = slices.Delete(c.names, i, i+1)
	}
}

// bodyReader is a rewindable request body that needs no allocation per
// request.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// prepared is one template's reusable request. Once a response to it
// has passed the full answer check, its hash stands in for the check on
// every repeat: the server's responses are deterministic, and decoding
// every lineage cone would cost more than the request itself.
type prepared struct {
	req      *http.Request
	body     bodyReader
	verified bool
	sum      uint64
}

var hashSeed = maphash.MakeSeed()

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	h    http.Header
	code int
	buf  []byte
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.buf = append(r.buf, p...)
	return len(p), nil
}

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

// bench is one set-up server with its pre-built requests.
type bench struct {
	in    *inputs
	st    *store.Store
	srv   *server.Server
	reqs  []prepared
	rec   recorder
	model *lru

	attempted, failed int
	firstErr          error
}

// newBench builds the request objects for every template; it is the
// benchmark's own work and stays outside set-up time.
func newBench(in *inputs) *bench {
	b := &bench{in: in, reqs: make([]prepared, len(in.tmpls)), rec: recorder{h: http.Header{}}}
	for i, t := range in.tmpls {
		b.reqs[i].req = httptest.NewRequest(t.method, t.target, nil)
	}
	return b
}

// setup creates the store over backend, preloads it, starts the server
// and runs the warm-up ops. It returns the program's set-up time: the
// preload and server construction plus the warm-up requests' serve
// time, without the benchmark's answer checks. A probe set-up (the
// traced run's probe server) skips preload and warm-up and always
// accepts writes.
func (b *bench) setup(backend store.Backend, scheme label.Scheme, probe bool) (time.Duration, error) {
	in := b.in
	start := threadCPU()
	st, err := store.New(backend, in.spec, specName)
	if err != nil {
		return 0, err
	}
	names, warm := in.names, in.warm
	if probe {
		names, warm = nil, nil
	}
	for _, name := range names {
		c := in.preload[name]
		if err := st.PutRun(name, c.run, nil, scheme); err != nil {
			return 0, fmt.Errorf("preload %s: %w", name, err)
		}
	}
	write := in.w.write || probe
	srv, err := server.New(server.Config{
		Store: st, Scheme: scheme, CacheSize: in.w.sz.cacheSize,
		EnableIngest: write, EnableStream: write,
	})
	if err != nil {
		return 0, err
	}
	took := threadCPU() - start
	b.st, b.srv, b.model = st, srv, newLRU(in.w.sz.cacheSize)
	for _, id := range warm {
		d := b.do(id)
		took += d
	}
	return took, nil
}

// do sends one op through ServeHTTP, checks the answer and returns the
// serve time alone.
func (b *bench) do(id int) time.Duration {
	d := b.serve(id)
	b.model.apply(b.in.tmpls[id])
	b.check(id)
	return d
}

// serve rewinds the op's request and times ServeHTTP in thread CPU time.
func (b *bench) serve(id int) time.Duration {
	t, p := b.in.tmpls[id], &b.reqs[id]
	if t.body != nil {
		p.body.Reset(t.body)
		p.req.Body = &p.body
		p.req.ContentLength = int64(len(t.body))
	} else {
		p.req.Body = http.NoBody
	}
	clear(b.rec.h)
	b.rec.code, b.rec.buf = 0, b.rec.buf[:0]
	start := threadCPU()
	b.srv.ServeHTTP(&b.rec, p.req)
	return threadCPU() - start
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the calling thread's CPU time; callers lock their
// goroutine to its thread while they measure. All the benchmark's times
// are differences of two reads, so time the host steals from the VM
// (bursts of milliseconds, up to a tenth of all time on a shared
// host) is not charged to the program. GC assists the request pays
// are charged; background GC work on the other core is not, just as it
// adds no wall-clock latency there.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// checkThreadCPU reports whether the thread CPU clock works here.
func checkThreadCPU() error {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return fmt.Errorf("reading the thread CPU clock: %w", errno)
	}
	return nil
}

// reply is the union of the response fields the checker reads.
type reply struct {
	Reachable *bool    `json:"reachable"`
	Results   []bool   `json:"results"`
	Count     int      `json:"count"`
	Cone      []string `json:"cone"`
	Match     *bool    `json:"match"`
	Vertices  int      `json:"vertices"`
	Edges     int      `json:"edges"`
	Applied   int      `json:"applied"`
	Deleted   bool     `json:"deleted"`
}

// check compares the last response with the op's answer key; a non-200
// or a wrong answer counts as failed.
func (b *bench) check(id int) {
	b.attempted++
	p := &b.reqs[id]
	sum := maphash.Bytes(hashSeed, b.rec.buf)
	if p.verified && b.rec.code == http.StatusOK && sum == p.sum {
		return
	}
	if err := verify(b.in.tmpls[id], b.rec.code, b.rec.buf); err != nil {
		b.failed++
		if b.firstErr == nil {
			b.firstErr = err
		}
		return
	}
	p.verified, p.sum = true, sum
}

func verify(t *tmpl, code int, body []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", t.method, t.target, code, bytes.TrimSpace(body))
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s %s: %v", t.method, t.target, err)
	}
	ok := true
	switch t.kind {
	case kPut, kFinish:
		ok = r.Vertices == t.vertices && r.Edges == t.edges
	case kAppend:
		ok = r.Applied == t.applied
	case kDelete:
		ok = r.Deleted
	case kReach:
		ok = r.Reachable != nil && *r.Reachable == t.reach
	case kBatch:
		ok = slices.Equal(r.Results, t.results)
	case kLineage:
		sort.Strings(r.Cone)
		ok = r.Count == len(r.Cone) && strings.Join(r.Cone, "\n") == t.cone
	case kRPQ:
		ok = r.Match != nil && *r.Match == t.match
	}
	if !ok {
		return fmt.Errorf("%s %s: wrong answer: %s", t.method, t.target, bytes.TrimSpace(body))
	}
	return nil
}

// liveHeap returns the live heap after a full collection. Two cycles
// empty sync.Pool victim caches, so pooled scratch does not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// timedResult is what one untraced run measured. Its times are this
// host's; setupScale and opScale turn them into the nominal machine's.
type timedResult struct {
	setups     []time.Duration
	setupScale []float64 // reference-kernel scale of each set-up
	opScale    []float64 // reference-kernel scale of each timed op
	runScale   float64   // reference-kernel scale over the whole timed phase
	heapBytes  float64
	lat        []time.Duration // per timed op, sequence order
	busy       time.Duration   // summed serve time of the timed ops
	wall       time.Duration   // the timed phase, answer checks included
	vertices   int             // ingest: vertices made queryable
	cache      server.CacheStats
	model      lru
	attempted  int
	failed     int
	firstErr   error
	truncated  bool
}

// timedRun sets the program up sz.setups times, keeps the last server,
// and times the op sequence through it with nothing attached but the
// reference kernel, which runs between requests every refEvery of serve
// time and between set-ups. It drops the generated runs once the last
// set-up has stored them: every pointer the benchmark keeps is one more
// the GC must mark during the timed phase, which the program alone
// would not pay.
func timedRun(in *inputs, seconds float64) (*timedResult, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	res := &timedResult{}
	ref := newRefKernel()
	refs := func() {
		for range 4 {
			ref.run()
		}
	}
	var b *bench
	for i := 0; i < in.w.sz.setups; i++ {
		nb := newBench(in)
		b = nil
		// Each set-up starts from a collected heap, not from the
		// previous set-up's garbage.
		runtime.GC()
		refs()
		d, err := nb.setup(store.NewMemBackend(), label.TCM{}, false)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, d)
		res.attempted += nb.attempted
		res.failed += nb.failed
		if res.firstErr == nil {
			res.firstErr = nb.firstErr
		}
		b = nb
	}
	refs()
	// Set-up i ran between passes 4i to 4i+3 and 4i+4 to 4i+7.
	for i := range res.setups {
		res.setupScale = append(res.setupScale, ref.scale(4*i, 4*i+8))
	}
	b.attempted, b.failed, b.firstErr = 0, 0, nil
	in.preload = nil
	runtime.GC()
	deadline := time.Now().Add(time.Duration(3*seconds*float64(time.Second)) + 30*time.Second)
	res.lat = make([]time.Duration, 0, len(in.seq))
	first, nextRef := len(ref.times), time.Duration(0)
	var refAt []int
	start := time.Now()
	for i, id := range in.seq {
		if i%64 == 0 && time.Now().After(deadline) {
			res.truncated = true
			break
		}
		if res.busy >= nextRef {
			ref.run()
			refAt = append(refAt, i)
			nextRef = res.busy + refEvery
		}
		d := b.do(id)
		res.lat = append(res.lat, d)
		res.busy += d
		if t := in.tmpls[id]; t.kind == kPut || t.kind == kFinish {
			res.vertices += t.vertices
		}
	}
	res.wall = time.Since(start)
	res.opScale = ref.opScales(first, refAt, len(res.lat))
	res.runScale = ref.scale(first, len(ref.times))
	// The program's memory is what stops being live with its store and
	// server; the benchmark's own state is the same on both sides.
	withServer := liveHeap()
	res.cache = b.srv.Stats()
	b.st, b.srv = nil, nil
	res.heapBytes = float64(withServer) - float64(liveHeap())
	res.model = *b.model
	res.attempted += b.attempted
	res.failed += b.failed
	if res.firstErr == nil {
		res.firstErr = b.firstErr
	}
	return res, nil
}
