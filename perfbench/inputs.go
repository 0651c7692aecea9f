package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/lineage"
	"repro/internal/loadgen"
	"repro/internal/plan"
	"repro/internal/rpq"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/xmlio"
)

// specName is the stand-in workflow every workload runs over, and
// specSeed the fixed seed that synthesizes it: the workload seed varies
// the runs and queries, never the specification. patternSeed likewise
// fixes the pool of path patterns the path queries draw from. A few
// patterns in any pool walk far on every run, and a pool drawn per seed
// moved hot-read's mean path-query cost by up to 1.5× between seeds;
// the seed still picks each query's pattern, pair and run.
const (
	specName    = "QBLAST"
	specSeed    = 1
	patternSeed = 1
)

// kind is one request class the benchmark sends.
type kind uint8

const (
	kPut kind = iota
	kAppend
	kFinish
	kDelete
	kReach
	kBatch
	kLineage
	kRPQ
	nKinds
)

var kindNames = [nKinds]string{"put", "append", "finish", "delete", "reach", "batch", "lineage", "rpq"}

func (k kind) String() string { return kindNames[k] }

func (k kind) isQuery() bool { return k >= kReach }

// corpusRun is one generated run with everything the benchmark derives
// from it outside the server: its document, its occurrence names and
// the answer-key labeling. Names are module name plus rank, so with
// modules like "v4" and "v47" two vertices can share one ("v471");
// queries only name vertices whose name is unambiguous.
type corpusRun struct {
	run    *run.Run
	plan   *plan.Plan
	doc    []byte
	names  []string
	unique []bool // the vertex's occurrence name resolves to it alone
	key    *core.Labeling
}

// tmpl is one distinct request with its expected answer. Op sequences
// index into a workload's template pool, so the answer key is computed
// once per template, however often the sequence repeats it.
type tmpl struct {
	kind   kind
	run    string // run name the request targets
	method string
	target string
	body   []byte

	// What the traced run replays directly against the layers.
	u, v    dag.VertexID
	pairs   [][2]dag.VertexID
	up      bool
	pattern string

	// The answer key.
	reach    bool
	results  []bool
	cone     string // sorted occurrence names, one per line: no pointers for the GC to scan
	match    bool
	vertices int // PUT and finish: the run's vertex count
	edges    int
	applied  int // append: events in the batch
}

// inputs is everything one workload run needs, generated from the seed
// before any timing starts.
type inputs struct {
	w       *workload
	spec    *spec.Spec
	skel    label.Labeling // answer-key skeleton (plain TCM)
	preload map[string]*corpusRun
	names   []string // preload order
	tmpls   []*tmpl
	warm    []int // warm-up ops (template indices), part of set-up
	seq     []int // timed ops
	probe   []int // traced run only: ops covering the layers seq bypasses
}

// prepare generates a workload's inputs and answer key for one seed.
func prepare(w *workload, seed int64, seconds float64) (*inputs, error) {
	sp, err := loadgen.StandInSpec(specName, specSeed)
	if err != nil {
		return nil, err
	}
	skel, err := label.TCM{}.Build(sp.Graph)
	if err != nil {
		return nil, err
	}
	in := &inputs{w: w, spec: sp, skel: skel, preload: map[string]*corpusRun{}}
	rng := rand.New(rand.NewSource(seed))
	ops := int(w.sz.rate*seconds + 0.5)
	if ops < 1 {
		ops = 1
	}
	if w.write {
		err = in.prepareIngest(rng, ops)
	} else {
		err = in.prepareReads(rng, ops)
	}
	if err != nil {
		return nil, err
	}
	return in, in.prepareProbe(rng)
}

// genRun generates a run within 5% of the target size, so per-op costs
// stay comparable from seed to seed, and derives its answer key.
func (in *inputs) genRun(rng *rand.Rand, target int) (*corpusRun, error) {
	var r *run.Run
	var p *plan.Plan
	for attempt := 0; attempt < 200; attempt++ {
		r, p = run.GenerateSized(in.spec, rng, target)
		if n := r.NumVertices(); n*20 >= target*19 && n*20 <= target*21 {
			break
		}
	}
	c := &corpusRun{run: r, plan: p}
	rank := make(map[dag.VertexID]int)
	seen := make(map[string]int)
	for _, o := range r.Origin {
		rank[o]++
		name := string(in.spec.NameOf(o)) + strconv.Itoa(rank[o])
		c.names = append(c.names, name)
		seen[name]++
	}
	for _, name := range c.names {
		c.unique = append(c.unique, seen[name] == 1)
	}
	var doc bytes.Buffer
	if err := xmlio.EncodeRun(&doc, r, nil, specName); err != nil {
		return nil, err
	}
	c.doc = doc.Bytes()
	key, err := core.LabelRun(r, in.skel)
	if err != nil {
		return nil, err
	}
	c.key = key
	return c, nil
}

func (in *inputs) add(t *tmpl) int {
	in.tmpls = append(in.tmpls, t)
	return len(in.tmpls) - 1
}

func putTmpl(name string, c *corpusRun) *tmpl {
	return &tmpl{
		kind: kPut, run: name, method: "PUT", target: "/runs/" + name, body: c.doc,
		vertices: c.run.NumVertices(), edges: c.run.NumEdges(),
	}
}

func deleteTmpl(name string) *tmpl {
	return &tmpl{kind: kDelete, run: name, method: "DELETE", target: "/runs/" + name}
}

// streamTmpls renders one run as 64-event append batches, then finish
// and delete, all for the named stream.
func (in *inputs) streamTmpls(name string, c *corpusRun) ([]int, error) {
	batches, err := loadgen.SplitEventLog(events.Emit(c.run, c.plan), 64)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, b := range batches {
		evs, err := events.ReadLog(bytes.NewReader(b.Body))
		if err != nil {
			return nil, err
		}
		ids = append(ids, in.add(&tmpl{
			kind: kAppend, run: name, method: "POST",
			target: "/runs/" + name + "/events?offset=" + strconv.Itoa(b.Offset),
			body:   b.Body, applied: len(evs),
		}))
	}
	ids = append(ids, in.add(&tmpl{
		kind: kFinish, run: name, method: "POST", target: "/runs/" + name + "/finish",
		vertices: c.run.NumVertices(), edges: c.run.NumEdges(),
	}))
	ids = append(ids, in.add(deleteTmpl(name)))
	return ids, nil
}

// prepareIngest builds the write-only sequence: jobs that each make one
// run queryable, about 3 in 4 a PUT overwriting one of a fixed set of
// names and 1 in 4 a stream (appends, finish, delete), so the store
// holds the same runs throughout.
func (in *inputs) prepareIngest(rng *rand.Rand, jobs int) error {
	sz := in.w.sz
	docs := make([]*corpusRun, sz.putDocs)
	for i := range docs {
		c, err := in.genRun(rng, sz.runVertices)
		if err != nil {
			return err
		}
		docs[i] = c
	}
	putIDs := make([][]int, sz.runs) // [name][doc]
	for i := 0; i < sz.runs; i++ {
		name := fmt.Sprintf("put-%02d", i)
		in.names = append(in.names, name)
		in.preload[name] = docs[i%len(docs)]
		for _, c := range docs {
			putIDs[i] = append(putIDs[i], in.add(putTmpl(name, c)))
		}
	}
	streams := make([][]int, sz.streamDocs)
	for i := range streams {
		c, err := in.genRun(rng, sz.runVertices)
		if err != nil {
			return err
		}
		if streams[i], err = in.streamTmpls("stream-0", c); err != nil {
			return err
		}
	}
	d := newDeck(rng, [nKinds]int{kPut: 3, kAppend: 1})
	job := func() []int {
		if d.next() == kAppend {
			return streams[rng.Intn(len(streams))]
		}
		return []int{putIDs[rng.Intn(sz.runs)][rng.Intn(len(docs))]}
	}
	for i := 0; i < sz.warm; i++ {
		in.warm = append(in.warm, job()...)
	}
	for i := 0; i < jobs; i++ {
		in.seq = append(in.seq, job()...)
	}
	return nil
}

// deck deals kinds in exact proportion: every round holds each kind as
// often as its weight, in seeded random order. Drawing kinds one by one
// at random would let the mix, and with it every throughput, wander from
// seed to seed.
type deck struct {
	rng         *rand.Rand
	round, left []kind
}

func newDeck(rng *rand.Rand, weights [nKinds]int) *deck {
	d := &deck{rng: rng}
	for k, w := range weights {
		for i := 0; i < w; i++ {
			d.round = append(d.round, kind(k))
		}
	}
	return d
}

func (d *deck) next() kind {
	if len(d.left) == 0 {
		d.left = append([]kind(nil), d.round...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	k := d.left[0]
	d.left = d.left[1:]
	return k
}

// rounds deals a template pool in shuffled rounds, so every template is
// sent equally often, give or take one round.
type rounds struct {
	rng       *rand.Rand
	all, left []int
}

func (r *rounds) next() int {
	if len(r.left) == 0 {
		r.left = append(r.left, r.all...)
		r.rng.Shuffle(len(r.left), func(i, j int) { r.left[i], r.left[j] = r.left[j], r.left[i] })
	}
	id := r.left[0]
	r.left = r.left[1:]
	return id
}

// queryPools holds one stored run's query templates by kind.
type queryPools [nKinds][]int

// prepareReads builds a read-only sequence over preloaded runs: each op
// picks a run (zipfian over the run list), a kind by the workload's mix
// and a template from that run's pool.
func (in *inputs) prepareReads(rng *rand.Rand, ops int) error {
	sz := in.w.sz
	patterns := loadgen.RPQPatternPool(in.spec, sz.rpqPatterns, patternSeed)
	pools := make([]queryPools, sz.runs)
	for i := 0; i < sz.runs; i++ {
		c, err := in.genRun(rng, sz.runVertices)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("run-%03d", i)
		in.names = append(in.names, name)
		in.preload[name] = c
		if pools[i], err = in.queryTmpls(rng, name, c, sz.perRun, patterns); err != nil {
			return err
		}
	}
	z := loadgen.NewZipf(sz.runs, sz.theta)
	d := newDeck(rng, sz.mix)
	deal := make([][nKinds]*rounds, sz.runs)
	for i := range deal {
		for k, ids := range pools[i] {
			deal[i][k] = &rounds{rng: rng, all: ids}
		}
	}
	pick := func() int {
		return deal[z.Next(rng)][d.next()].next()
	}
	// Warm-up touches every run the cache can hold, most popular last.
	for i := min(sz.cacheSize, sz.runs) - 1; i >= 0; i-- {
		in.warm = append(in.warm, pools[i][kReach][0])
	}
	for i := 0; i < sz.warm; i++ {
		in.warm = append(in.warm, pick())
	}
	for i := 0; i < ops; i++ {
		in.seq = append(in.seq, pick())
	}
	return nil
}

// rpqDraws is how many path-query candidates are drawn per template.
const rpqDraws = 16

// queryTmpls builds n templates of each query kind over one run. Half
// the pairs are drawn reachable, so answers and path queries do real
// work instead of all failing the first label check.
func (in *inputs) queryTmpls(rng *rand.Rand, name string, c *corpusRun, n int, patterns []string) (queryPools, error) {
	var pools queryPools
	nv := c.run.NumVertices()
	vertex := func() dag.VertexID {
		for {
			if v := dag.VertexID(rng.Intn(nv)); c.unique[v] {
				return v
			}
		}
	}
	pair := func() (dag.VertexID, dag.VertexID) {
		u := vertex()
		if rng.Intn(2) == 0 {
			down := lineage.Downstream(c.run, u)
			for try := 0; try < 8 && len(down) > 0; try++ {
				if v := down[rng.Intn(len(down))]; c.unique[v] {
					return u, v
				}
			}
		}
		return u, vertex()
	}
	cands := newConeCandidates(c, vertex)
	for i := 0; i < n; i++ {
		u, v := pair()
		pools[kReach] = append(pools[kReach], in.add(&tmpl{
			kind: kReach, run: name, method: "GET", u: u, v: v,
			target: "/reachable?" + url.Values{"run": {name}, "from": {c.names[u]}, "to": {c.names[v]}}.Encode(),
			reach:  c.key.Reachable(u, v),
		}))

		t := &tmpl{kind: kBatch, run: name, method: "POST", target: "/batch"}
		refs := make([][2]string, 64)
		for j := range refs {
			u, v := pair()
			t.pairs = append(t.pairs, [2]dag.VertexID{u, v})
			t.results = append(t.results, c.key.Reachable(u, v))
			refs[j] = [2]string{c.names[u], c.names[v]}
		}
		body, err := json.Marshal(map[string]any{"run": name, "pairs": refs})
		if err != nil {
			return pools, err
		}
		t.body = body
		pools[kBatch] = append(pools[kBatch], in.add(t))

		t = &tmpl{kind: kLineage, run: name, method: "GET", up: i%2 == 0}
		dir, cone := "down", lineage.Downstream
		if t.up {
			dir, cone = "up", lineage.Upstream
		}
		want := int((float64(i) + 0.5) / float64(n) * 0.5 * float64(nv))
		t.v = cands.nearest(t.up, want)
		var names []string
		for _, x := range cone(c.run, t.v) {
			names = append(names, c.names[x])
		}
		sort.Strings(names)
		t.cone = strings.Join(names, "\n")
		t.target = "/lineage?" + url.Values{"run": {name}, "vertex": {c.names[t.v]}, "dir": {dir}}.Encode()
		pools[kLineage] = append(pools[kLineage], in.add(t))

	}
	// Path-query cost is heavy-tailed: a few pattern and pair
	// combinations walk much of the run. So rpqDraws candidates are drawn
	// per template and costed by the labeled walk's reachability probes
	// and DFA states. In cost order they form n equal bands, and each
	// template is the middle candidate of one band: every seed gets the
	// same spread of cheap and costly queries, the costliest band
	// included.
	type rpqCand struct {
		u, v dag.VertexID
		pat  string
		prog *rpq.Prog
		cost int
	}
	var rcs []rpqCand
	for len(rcs) < rpqDraws*n {
		u, v := pair()
		pat := patterns[rng.Intn(len(patterns))]
		prog, err := rpq.Compile(pat, func(m string) (dag.VertexID, bool) {
			return in.spec.VertexOf(spec.ModuleName(m))
		})
		if err != nil {
			return pools, fmt.Errorf("pattern %q: %w", pat, err)
		}
		probes := 0
		m := rpq.NewMatcher(prog, 0)
		if _, err := m.Eval(c.run.Graph, c.run.Origin, func(a, b dag.VertexID) bool {
			probes++
			return c.key.Reachable(a, b)
		}, u, v); err != nil {
			continue // over the DFA state budget: the server would refuse it
		}
		rcs = append(rcs, rpqCand{u, v, pat, prog, probes + m.NumDFAStates()})
	}
	slices.SortStableFunc(rcs, func(a, b rpqCand) int { return cmp.Compare(a.cost, b.cost) })
	for i := 0; i < n; i++ {
		x := rcs[rpqDraws*i+rpqDraws/2]
		body, err := json.Marshal(map[string]string{"run": name, "from": c.names[x.u], "to": c.names[x.v], "pattern": x.pat})
		if err != nil {
			return pools, err
		}
		pools[kRPQ] = append(pools[kRPQ], in.add(&tmpl{
			kind: kRPQ, run: name, method: "POST", target: "/rpq", body: body,
			u: x.u, v: x.v, pattern: x.pat, match: c.run.Graph.MatchAutomaton(x.u, x.v, c.run.Origin, x.prog),
		}))
	}
	return pools, nil
}

// coneCandidates are vertices with their cone sizes. A lineage query
// costs a scan of the run plus naming its cone, and the run's shape
// decides its cones, so lineage templates pick vertices by cone size,
// spread evenly over 0–50% of the run: the lineage work then stays the
// same from seed to seed.
type coneCandidates struct {
	v        []dag.VertexID
	down, up []int
}

func newConeCandidates(c *corpusRun, vertex func() dag.VertexID) *coneCandidates {
	cc := &coneCandidates{}
	for i := 0; i < 256; i++ {
		v := vertex()
		cc.v = append(cc.v, v)
		cc.down = append(cc.down, len(lineage.Downstream(c.run, v)))
		cc.up = append(cc.up, len(lineage.Upstream(c.run, v)))
	}
	return cc
}

// nearest returns the candidate whose cone in the direction is closest
// to want vertices.
func (cc *coneCandidates) nearest(up bool, want int) dag.VertexID {
	sizes := cc.down
	if up {
		sizes = cc.up
	}
	best := 0
	for i, n := range sizes {
		if abs(n-want) < abs(sizes[best]-want) {
			best = i
		}
	}
	return cc.v[best]
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// prepareProbe builds the traced run's probe: for every layer the
// workload's own sequence never reaches, a few requests over a run of
// the workload's size, so every per-layer metric is measured on every
// workload. The probe leaves the store as it found it.
func (in *inputs) prepareProbe(rng *rand.Rand) error {
	c, err := in.genRun(rng, in.w.sz.runVertices)
	if err != nil {
		return err
	}
	const name = "probe-q"
	put := in.add(putTmpl(name, c))
	in.probe = append(in.probe, put, put, put)
	pools, err := in.queryTmpls(rng, name, c, 4, loadgen.RPQPatternPool(in.spec, 8, rng.Int63()))
	if err != nil {
		return err
	}
	for k := kReach; k < nKinds; k++ {
		in.probe = append(in.probe, pools[k]...)
	}
	in.probe = append(in.probe, in.add(deleteTmpl(name)))
	ids, err := in.streamTmpls("probe-s", c)
	if err != nil {
		return err
	}
	in.probe = append(in.probe, ids...)
	return nil
}
