// Package server is a concurrent provenance query service over a
// provenance store: an HTTP/JSON API answering reachability and lineage
// queries from stored skeleton labels. It is the serving layer the paper
// motivates — labels are computed once at ingest (store.PutRun) and then
// answer constant-time queries for many concurrent clients. The server
// is backend-agnostic: it speaks to store.Store, which runs over any
// store.Backend (one directory, RAM, or a shard set), so the same
// process can front a local store, an ephemeral in-memory copy, or many
// disks.
//
// Endpoints:
//
//	GET  /healthz              liveness + backend + cache + admission stats
//	GET  /specs                the store's specification (modules, channels)
//	GET  /runs                 stored run names
//	GET  /runs?run=R           one run's size and label statistics
//	PUT  /runs/{name}          ingest one run document (xmlio run XML, data
//	                           items inline); the run is labeled, persisted
//	                           via store.PutRun, and immediately queryable
//	                           (requires Config.EnableIngest)
//	DELETE /runs/{name}        remove a stored run and its label snapshot;
//	                           the very next query for it answers 404
//	                           (requires Config.EnableIngest or
//	                           Config.EnableStream; with streaming it also
//	                           aborts a live stream under the name)
//	GET  /runs/{name}          one run's status: live streaming progress or
//	                           finished-run label statistics
//	POST /runs/{name}/events   append a batch of engine events to a live
//	                           run at an explicit offset; idempotent resume,
//	                           409 on gap or conflict (requires
//	                           Config.EnableStream; see stream.go)
//	POST /runs/{name}/finish   seal a live run into a stored, labeled run
//	GET  /reachable?run=R&from=U&to=V
//	                           one reachability query
//	POST /batch                {"run":R,"pairs":[[U,V],...]} -> {"results":[...]}
//	                           pair elements are vertex references as JSON
//	                           strings ("b2", "12") or bare non-negative
//	                           integers (12); both forms may be mixed in
//	                           one request
//	GET  /lineage?run=R&vertex=V&dir=up|down
//	                           the vertex's upstream or downstream cone
//
// Vertices are addressed by occurrence name ("b2" = second execution of
// module b) or by numeric vertex ID. All handlers are safe for concurrent
// use: sessions are immutable once loaded, apart from their run document,
// which is decoded at most once (see the store package's concurrency
// contract), and they are shared through an LRU cache with singleflight
// load dedup, so a cache hit answers queries with zero disk I/O. A cache
// miss is the paper's label lookup: /reachable, /batch and /lineage run
// on the stored labels and a name index built from their origin column;
// only /rpq and finished-run status decode the run document.
//
// /batch is the allocation-critical path: request decode, pair
// resolution, batch evaluation and response encode all run in pooled
// per-request scratch (see batchcodec.go), and large batches fan out
// across CPUs through the labeling's parallel batch evaluator
// (Config.BatchParallelism).
//
// Every endpoint except /healthz sits behind an admission-control layer
// (admission.go): a bounded concurrency gate with a bounded wait queue,
// plus optional per-client token-bucket rate limits. Overload answers
// 429 with Retry-After instead of accumulating unbounded in-flight
// work, so cold-cache stampedes and ingest bursts degrade gracefully.
//
// The write path (ingest.go) pairs with warm-restart support:
// SaveHotList persists which sessions were resident at shutdown and
// WarmFromHotList preloads them before a restarted server takes
// traffic, trading a short startup delay for zero cold-load latency on
// the first queries (see cmd/provserve's -warm flag).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/lineage"
	"repro/internal/live"
	"repro/internal/run"
	"repro/internal/store"
)

// Config configures a Server.
type Config struct {
	// Store is the opened provenance store to serve. Required.
	Store *store.Store
	// Scheme labels the specification skeleton when sessions are loaded.
	// Defaults to TCM (constant-time skeleton queries).
	Scheme label.Scheme
	// CacheSize bounds the number of concurrently cached run sessions
	// (LRU eviction beyond it). Defaults to 16.
	CacheSize int
	// MaxBatch bounds the number of pairs accepted by one /batch request.
	// Defaults to 8192.
	MaxBatch int
	// BatchParallelism caps the goroutines answering one /batch
	// request's pairs: batches of at least 1024 pairs are split across
	// up to this many CPUs (smaller ones are answered sequentially —
	// fan-out costs more than it saves). <= 0 uses GOMAXPROCS; 1 forces
	// sequential evaluation.
	BatchParallelism int
	// EnableIngest turns on the write path: PUT /runs/{name} labels and
	// persists posted run documents, and DELETE /runs/{name} removes
	// stored runs. Off by default so a server over a shared or read-only
	// store cannot be written through.
	EnableIngest bool
	// MaxIngestBytes bounds one ingest request body. Defaults to 16 MiB.
	MaxIngestBytes int64
	// EnableStream turns on the streaming ingest subsystem: POST
	// /runs/{name}/events appends engine events to a live per-run
	// session labeled online, POST /runs/{name}/finish seals it into a
	// normal stored run, and queries answer against live sessions
	// transparently (see stream.go). Independent of EnableIngest: a
	// server may accept streams but not documents, or vice versa.
	EnableStream bool
	// CheckpointEvery bounds how many events a live session applies
	// between checkpoints — the replay debt a crash can accumulate.
	// 0 defaults to 256; negative disables periodic checkpointing
	// (recovery then replays the whole event log).
	CheckpointEvery int
	// MaxRuns, when positive, bounds how many runs the store may hold:
	// after each successful ingest the retention sweep deletes
	// least-valuable runs (cold before cached, cached in LRU order —
	// see EnforceMaxRuns) until the bound holds again. 0 disables
	// retention. Requires EnableIngest (the sweep rides the write path).
	MaxRuns int
	// Logf, when set, receives operational log lines (warm-preload
	// skips, deletions, retention sweeps) printf-style. Nil discards
	// them; cmd/provserve passes log.Printf.
	Logf func(format string, args ...any)
	// MaxInflight bounds how many requests execute concurrently across
	// all endpoints but /healthz; excess requests wait in a bounded
	// queue. Defaults to 64.
	MaxInflight int
	// QueueDepth bounds how many requests may wait for an execution
	// slot before new arrivals are shed with 429/Retry-After. Defaults
	// to 2*MaxInflight.
	QueueDepth int
	// RatePerClient, when positive, enforces a per-client token-bucket
	// rate limit (requests per second), keyed by X-Client-ID or remote
	// host. 0 disables rate limiting.
	RatePerClient float64
	// RateBurst is the token bucket's capacity. <= 0 means
	// 2*RatePerClient; values below one token are clamped to 1 (a
	// bucket that can never fill a whole token would reject forever).
	RateBurst float64
	// BreakerThreshold is how many consecutive transient backend
	// failures flip the server into degraded read-only mode (see
	// breaker.go): writes shed with 503 + Retry-After, cache-hit and
	// live-session reads keep answering, cache-miss reads shed. 0
	// defaults to 5; negative disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is the interval between backend health probes
	// while the breaker is open — and the Retry-After clients are told.
	// <= 0 defaults to 500ms.
	BreakerCooldown time.Duration
	// RPQMaxDFAStates caps how many DFA states one POST /rpq
	// evaluation may lazily determinize before the pattern is rejected
	// as pathological (400). <= 0 uses rpq.DefaultMaxDFAStates.
	RPQMaxDFAStates int
}

// Server answers provenance queries over one store. It is an
// http.Handler; all methods are safe for concurrent use.
type Server struct {
	st             *store.Store
	scheme         label.Scheme
	cache          *sessionCache
	maxBatch       int
	batchPar       int
	ingest         bool
	maxIngestBytes int64
	maxRuns        int
	rpqMaxStates   int
	logf           func(format string, args ...any)
	runMu          runLocks
	adm            *admission
	brk            *breaker
	mux            *http.ServeMux

	// Streaming ingest state (nil/zero unless Config.EnableStream):
	// the live-session registry, the skeleton labeling feeding online
	// labelers, and the checkpoint cadence. See stream.go.
	stream     bool
	ckptEvery  int
	live       *live.Registry
	streamSkel label.Labeling
	// streamsExpired counts live sessions the idle-TTL sweep reclaimed
	// (SweepIdleStreams), surfaced in /healthz.
	streamsExpired atomic.Int64

	// ingesting refcounts run names with a PUT handler in flight, from
	// before the document decodes until the response is written. The
	// retention sweep never victimizes these: without it, a concurrent
	// sweep could list another client's just-persisted (cold, unqueried)
	// run and delete it before that client even receives its 200.
	ingestingMu sync.Mutex
	ingesting   map[string]int

	served servedCounters
}

// servedCounters counts admitted requests per endpoint — the
// server-side ground truth a load harness (cmd/provload) diffs across a
// run to cross-check its client-side counts: under overload, responses
// lost in transit appear as a gap between served and completed.
type servedCounters struct {
	healthz, specs, runs, reachable, batch, lineage, ingest, delete atomic.Int64
	events, finish, status, rpq, other                              atomic.Int64
}

// counterFor maps one request to its endpoint counter.
func (c *servedCounters) counterFor(r *http.Request) *atomic.Int64 {
	switch {
	case r.URL.Path == "/healthz":
		return &c.healthz
	case r.URL.Path == "/specs":
		return &c.specs
	case r.URL.Path == "/runs":
		return &c.runs
	case r.URL.Path == "/reachable":
		return &c.reachable
	case r.URL.Path == "/batch":
		return &c.batch
	case r.URL.Path == "/lineage":
		return &c.lineage
	case r.URL.Path == "/rpq":
		return &c.rpq
	case strings.HasPrefix(r.URL.Path, "/runs/"):
		switch {
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/events"):
			return &c.events
		case r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/finish"):
			return &c.finish
		case r.Method == http.MethodPut:
			return &c.ingest
		case r.Method == http.MethodDelete:
			return &c.delete
		case r.Method == http.MethodGet:
			return &c.status
		}
	}
	return &c.other
}

func (c *servedCounters) snapshot() map[string]int64 {
	return map[string]int64{
		"healthz":   c.healthz.Load(),
		"specs":     c.specs.Load(),
		"runs":      c.runs.Load(),
		"reachable": c.reachable.Load(),
		"batch":     c.batch.Load(),
		"lineage":   c.lineage.Load(),
		"put":       c.ingest.Load(),
		"delete":    c.delete.Load(),
		"events":    c.events.Load(),
		"finish":    c.finish.Load(),
		"status":    c.status.Load(),
		"rpq":       c.rpq.Load(),
		"other":     c.other.Load(),
	}
}

// Served returns the number of requests dispatched per endpoint since
// the server started (admitted requests only — 429s rejected at the
// admission layer are counted in AdmissionState instead).
func (s *Server) Served() map[string]int64 { return s.served.snapshot() }

// session is one cached run: the stored session plus the name index,
// both immutable after load (the stored session decodes its run
// document at most once, on the first query that needs it).
type session struct {
	*store.Session
	namer *run.Namer
}

// newSession indexes a stored session's vertex names from its label
// snapshot's origin column — the run document stays undecoded until a
// path query or a run status asks for it.
func (s *Server) newSession(sess *store.Session) *session {
	return &session{Session: sess, namer: run.NewNamerFromOrigins(s.st.Spec(), sess.Labels.Origins())}
}

// New builds a Server for the configured store.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.Scheme == nil {
		cfg.Scheme = label.TCM{}
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 16
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 8192
	}
	if cfg.MaxIngestBytes <= 0 {
		cfg.MaxIngestBytes = 16 << 20
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 256
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 2 * cfg.MaxInflight
	}
	if cfg.MaxRuns > 0 && !cfg.EnableIngest {
		return nil, errors.New("server: Config.MaxRuns requires EnableIngest (retention sweeps ride the write path)")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 5
	}
	s := &Server{
		st:             cfg.Store,
		scheme:         cfg.Scheme,
		maxBatch:       cfg.MaxBatch,
		batchPar:       cfg.BatchParallelism,
		ingest:         cfg.EnableIngest,
		maxIngestBytes: cfg.MaxIngestBytes,
		maxRuns:        cfg.MaxRuns,
		rpqMaxStates:   cfg.RPQMaxDFAStates,
		logf:           cfg.Logf,
		adm:            newAdmission(cfg.MaxInflight, cfg.QueueDepth, cfg.RatePerClient, cfg.RateBurst),
		mux:            http.NewServeMux(),
	}
	s.ingesting = make(map[string]int)
	s.cache = newSessionCache(cfg.CacheSize, s.load)
	// The probe is the cheapest whole-backend read there is: the spec
	// blob exists in every opened store, so a successful read means the
	// substrate answers again.
	s.brk = newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, func() error {
		rc, err := cfg.Store.Backend().ReadSpec()
		if err == nil {
			rc.Close()
		}
		return err
	}, cfg.Logf)
	if cfg.EnableStream {
		skel, err := cfg.Store.Skeleton(s.scheme)
		if err != nil {
			return nil, fmt.Errorf("server: building skeleton labeling for streaming: %w", err)
		}
		s.stream = true
		s.ckptEvery = cfg.CheckpointEvery
		s.streamSkel = skel
		s.live = live.NewRegistry()
	}
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/specs", s.handleSpecs)
	s.mux.HandleFunc("/runs", s.handleRuns)
	s.mux.HandleFunc("GET /runs/{name}", s.handleRunStatus)
	s.mux.HandleFunc("PUT /runs/{name}", s.handleIngest)
	s.mux.HandleFunc("DELETE /runs/{name}", s.handleDelete)
	s.mux.HandleFunc("POST /runs/{name}/events", s.handleAppendEvents)
	s.mux.HandleFunc("POST /runs/{name}/finish", s.handleFinish)
	s.mux.HandleFunc("/reachable", s.handleReachable)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/lineage", s.handleLineage)
	s.mux.HandleFunc("/rpq", s.handleRPQ)
	return s, nil
}

// ServeHTTP implements http.Handler. /healthz bypasses admission so the
// server stays observable while shedding load; everything else pays the
// admission toll (rate limit + bounded concurrency) before dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" {
		s.served.healthz.Add(1)
		s.mux.ServeHTTP(w, r)
		return
	}
	release, ok := s.adm.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.served.counterFor(r).Add(1)
	s.mux.ServeHTTP(w, r)
}

// Stats returns the session cache's counters.
func (s *Server) Stats() CacheStats { return s.cache.Stats() }

// AdmissionState returns the admission layer's counters.
func (s *Server) AdmissionState() AdmissionStats { return s.adm.Stats() }

// SaveHotList persists the names of the sessions currently resident in
// the cache (most recently used first) to the store's hot-list meta
// blob, so the next server over the same store can WarmFromHotList.
// Call it on graceful shutdown (cmd/provserve does, under -warm).
func (s *Server) SaveHotList() error { return s.st.WriteHotList(s.cache.Names()) }

// WarmFromHotList preloads the store's saved hot-session list into the
// cache, returning how many sessions loaded. Stale entries (runs since
// deleted, corrupt snapshots) are skipped and logged, never fatal: the
// list is advisory, and a partially warm cache still beats a cold one —
// a .hot blob naming a vanished run must never wedge a restart.
// (Store.WriteHotList prunes deleted names at save time, so skips here
// mean the run vanished after the list was written — e.g. another
// process deleted it, or the list predates this version.) Loads run
// oldest-first so the list's most recently used name ends up at the
// front of the LRU, exactly as it was at shutdown.
func (s *Server) WarmFromHotList() (int, error) {
	names, err := s.st.ReadHotList()
	if err != nil {
		return 0, err
	}
	if len(names) > s.cache.max {
		names = names[:s.cache.max]
	}
	loaded := 0
	for i := len(names) - 1; i >= 0; i-- {
		if _, err := s.cache.Get(names[i]); err == nil {
			loaded++
		} else {
			s.logf("server: warm preload skipping %q: %v", names[i], err)
		}
	}
	return loaded, nil
}

// NewHTTPServer wraps a handler in the http.Server configuration every
// deployment of this service should carry: read/idle timeouts so slow
// or idle clients cannot pin connections forever. ListenAndServe and
// cmd/provserve both build on it, so the timeout policy lives in
// exactly one place.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// ListenAndServe builds a Server and serves it on addr until the
// listener fails.
func ListenAndServe(addr string, cfg Config) error {
	s, err := New(cfg)
	if err != nil {
		return err
	}
	return NewHTTPServer(addr, s).ListenAndServe()
}

// load opens one run from the store's backend; it runs at most once per
// run name at a time (singleflight in the cache) and its result is
// shared by all subsequent cache hits. It holds the run's read lock so
// an in-process ingest can never overwrite the blobs mid-load and hand
// back a torn session (old document, new labels); see ingest.go.
func (s *Server) load(name string) (*session, error) {
	mu := s.runMu.forName(name)
	mu.RLock()
	sess, err := s.st.OpenRun(name, s.scheme)
	mu.RUnlock()
	s.brk.note(err)
	if err != nil {
		return nil, err
	}
	return s.newSession(sess), nil
}

// vertex resolves a vertex reference; it and the /batch decoder share
// vertexBytes so every endpoint resolves references identically.
func (se *session) vertex(ref string) (dag.VertexID, bool) {
	return se.vertexBytes([]byte(ref))
}

// vertexBytes resolves a vertex reference: an occurrence name ("b2")
// first — so every name the server itself emits resolves, even when
// module names start with digits — falling back to a numeric vertex ID
// (sign-tolerant like the strconv.Atoi path it replaced, without the
// string conversion the /batch hot path cannot afford).
func (se *session) vertexBytes(ref []byte) (dag.VertexID, bool) {
	if len(ref) == 0 {
		return 0, false
	}
	if v, ok := se.namer.VertexBytes(ref); ok {
		return v, true
	}
	digits := ref
	if digits[0] == '+' {
		digits = digits[1:]
	}
	if len(digits) == 0 {
		return 0, false
	}
	id := 0
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		if id = id*10 + int(c-'0'); id >= se.Labels.NumVertices() {
			return 0, false
		}
	}
	return dag.VertexID(id), true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	degraded := s.brk.isOpen()
	status := "ok"
	if degraded {
		status = "degraded"
	}
	body := map[string]any{
		"status":    status,
		"degraded":  degraded,
		"breaker":   s.brk.stats(),
		"spec":      s.st.SpecName(),
		"scheme":    s.scheme.Name(),
		"ingest":    s.ingest,
		"stream":    s.stream,
		"store":     s.st.Stat(),
		"cache":     s.cache.Stats(),
		"admission": s.adm.Stats(),
		"served":    s.served.snapshot(),
	}
	if s.stream {
		body["live"] = s.live.Stats()
		body["streams_expired"] = s.streamsExpired.Load()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	sp := s.st.Spec()
	modules := make([]string, sp.NumVertices())
	for v := range modules {
		modules[v] = string(sp.NameOf(dag.VertexID(v)))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":     s.st.SpecName(),
		"vertices": sp.NumVertices(),
		"edges":    sp.NumEdges(),
		"modules":  modules,
	})
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	name := r.URL.Query().Get("run")
	if name == "" {
		if s.brk.isOpen() {
			s.unavailable(w, "degraded mode: backend unavailable, run listing needs it")
			return
		}
		runs, err := s.st.Runs()
		s.brk.note(err)
		if err != nil {
			if store.IsTransient(err) {
				s.unavailable(w, "listing runs: %v", err)
				return
			}
			writeErr(w, http.StatusInternalServerError, "listing runs: %v", err)
			return
		}
		if runs == nil {
			runs = []string{}
		}
		writeJSON(w, http.StatusOK, map[string]any{"runs": runs})
		return
	}
	s.writeRunStatus(w, name)
}

func (s *Server) handleReachable(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	ls, release, sess, ok := s.resolveRun(w, q.Get("run"))
	if !ok {
		return
	}
	if ls != nil {
		defer release()
	}
	from, to := q.Get("from"), q.Get("to")
	if from == "" || to == "" {
		writeErr(w, http.StatusBadRequest, "missing 'from' or 'to' parameter")
		return
	}
	var u, v dag.VertexID
	var okU, okV bool
	if ls != nil {
		u, okU = ls.Vertex(from)
		v, okV = ls.Vertex(to)
	} else {
		u, okU = sess.vertex(from)
		v, okV = sess.vertex(to)
	}
	if !okU || !okV {
		bad := from
		if okU {
			bad = to
		}
		writeErr(w, http.StatusNotFound, "unknown vertex %q", bad)
		return
	}
	var reach, byCtx bool
	if ls != nil {
		reach, byCtx = ls.Reachable(u, v), ls.ByContext(u, v)
	} else {
		reach, byCtx = sess.Labels.Reachable(u, v), sess.Labels.AnsweredByContext(u, v)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"run":        q.Get("run"),
		"from":       from,
		"to":         to,
		"reachable":  reach,
		"by_context": byCtx,
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	// Bound the body by what maxBatch pairs could plausibly occupy.
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.maxBatch)*128+4096)
	sc := getBatchScratch()
	defer sc.release()
	if err := sc.readBody(r.Body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooLarge.Limit)
			return
		}
		writeErr(w, http.StatusBadRequest, "reading request body: %v", err)
		return
	}
	if err := parseBatchRequest(sc.body, sc, s.maxBatch); err != nil {
		if errors.Is(err, errBatchTooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge,
				"batch exceeds limit of %d pairs", s.maxBatch)
			return
		}
		writeErr(w, http.StatusBadRequest, "malformed request body: %v", err)
		return
	}
	ls, release, sess, ok := s.resolveRun(w, string(sc.run))
	if !ok {
		return
	}
	if ls != nil {
		defer release()
	}
	for i := range sc.tokens {
		var u, v dag.VertexID
		var okU, okV bool
		if ls != nil {
			u, okU = liveVertexToken(ls, sc.tokens[i][0])
			v, okV = liveVertexToken(ls, sc.tokens[i][1])
		} else {
			u, okU = sess.vertexToken(sc.tokens[i][0])
			v, okV = sess.vertexToken(sc.tokens[i][1])
		}
		if !okU || !okV {
			bad := sc.tokens[i][0].raw
			if okU {
				bad = sc.tokens[i][1].raw
			}
			writeErr(w, http.StatusNotFound, "pair %d: unknown vertex %q", i, bad)
			return
		}
		sc.pairs = append(sc.pairs, [2]dag.VertexID{u, v})
	}
	if ls != nil {
		// Live sessions answer sequentially: the online labeler is
		// mutable state under the run lock, not a parallel-safe snapshot.
		for _, p := range sc.pairs {
			sc.results = append(sc.results, ls.Reachable(p[0], p[1]))
		}
	} else {
		// The hot path: evaluation and encoding run entirely in the pooled
		// scratch, fanning out across CPUs for large batches.
		sc.results = sess.Labels.AppendReachableBatch(sc.results, sc.pairs, s.batchPar)
	}
	sc.out = appendBatchResponse(sc.out, sc.run, sc.results)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(sc.out)
}

func (s *Server) handleLineage(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	q := r.URL.Query()
	ls, release, sess, ok := s.resolveRun(w, q.Get("run"))
	if !ok {
		return
	}
	if ls != nil {
		defer release()
	}
	ref := q.Get("vertex")
	if ref == "" {
		writeErr(w, http.StatusBadRequest, "missing 'vertex' parameter")
		return
	}
	var v dag.VertexID
	var okV bool
	if ls != nil {
		v, okV = ls.Vertex(ref)
	} else {
		v, okV = sess.vertex(ref)
	}
	if !okV {
		writeErr(w, http.StatusNotFound, "unknown vertex %q", ref)
		return
	}
	dir := q.Get("dir")
	var cone []dag.VertexID
	switch dir {
	case "", "up":
		dir = "up"
		if ls != nil {
			cone = ls.Upstream(v)
		} else {
			cone = lineage.UpstreamByLabels(sess.Labels, v)
		}
	case "down":
		if ls != nil {
			cone = ls.Downstream(v)
		} else {
			cone = lineage.DownstreamByLabels(sess.Labels, v)
		}
	default:
		writeErr(w, http.StatusBadRequest, "dir must be 'up' or 'down', got %q", dir)
		return
	}
	names := make([]string, len(cone))
	for i, u := range cone {
		if ls != nil {
			names[i] = ls.Name(u)
		} else {
			names[i] = sess.namer.Name(u)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"run":       q.Get("run"),
		"vertex":    ref,
		"direction": dir,
		"count":     len(names),
		"cone":      names,
	})
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
