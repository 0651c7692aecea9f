// Package server is a concurrent provenance query service over a
// provenance store: an HTTP/JSON API answering reachability and lineage
// queries from stored skeleton labels. It is the serving layer the paper
// motivates — labels are computed once at ingest (store.PutRun) and then
// answer constant-time queries for many concurrent clients. The server
// is backend-agnostic: it speaks to store.Store, which runs over any
// store.Backend (one directory or RAM), so the same process can front a
// local store or an ephemeral in-memory copy.
//
// Endpoints, each declared once in New's route table (pattern, method,
// served-counter key, handler):
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
//	POST /rpq                  {"run":R,"from":U,"to":V,"pattern":P} -> does
//	                           some path from U to V spell P (see rpq.go)
//
// One wrapper serves every route: it counts the request under the
// route's key in /healthz "served", answers a wrong method 405 with
// Allow, calls the handler and sends its error through Server.fail. A
// request no route matches keeps the mux's own plain-text 404 or 405
// and counts as "other".
//
// Vertices are addressed by occurrence name ("b2" = second execution of
// module b) or by numeric vertex ID, resolved the same way for every
// endpoint (vertexParam). A run.Namer computes each name from the
// vertex's origin and rank and stores none.
//
// There is one query path (view.go). A query is a predicate over two
// labels, the same whether the run was labeled offline at ingest or
// online as it streams in, so every query handler runs the same four
// steps: parse the request, resolveRun the name to a runView, evaluate
// against the view, encode the answer. resolveRun hands back a stored
// session from the cache or a live stream (with its read lock held until
// the returned release, which is always callable); the handlers never
// ask which.
//
// Every response body except /healthz's comes from one pooled JSON
// writer (jsonwriter.go), byte for byte what encoding/json wrote for it.
// Every handler failure reaches HTTP through one mapping, Server.fail,
// and every error body is {"error": message} from that writer. Only
// three answers are written elsewhere: 405 by the route wrapper before
// a handler runs, 429 by admission control before it is reached, and an
// append's 409, whose body also carries the applied "seq". The status
// codes:
//
//	400  malformed request: a missing or bad parameter, run name, body,
//	     event log or pattern (a badRequest error)
//	403  the write endpoint is disabled on this server (errDisabled)
//	404  unknown run, vertex or live stream (fs.ErrNotExist, unless a
//	     store write failed: that is a writeFailure, 503 or 500)
//	405  wrong method; Allow names the right one
//	409  stream conflict: an append gap or conflicting resend, a stream
//	     that does not yet describe a complete run
//	     (*live.IncompleteError), or an append to a stored run or a
//	     finish of one with no stream state left (errFinished)
//	413  request body over its limit (*http.MaxBytesError), or a /batch
//	     over Config.MaxBatch pairs (errBatchTooLarge)
//	429  shed by admission control, with Retry-After
//	503  transient backend failure (store.IsTransient) or degraded mode
//	     (a degraded error), with Retry-After
//	500  anything else
//
// All handlers are safe for concurrent use: sessions are immutable once
// loaded, apart from their run document, which is decoded at most once
// (see the store package's concurrency contract), and they are shared
// through an LRU cache with singleflight load dedup, so a cache hit
// answers queries with zero disk I/O. A cache
// miss is the paper's label lookup: /reachable, /batch and /lineage run
// on the stored labels and a run.Namer built from their origin column
// (three integer columns, about 13 bytes per vertex); only /rpq and
// finished-run status decode the run document.
//
// /batch is the allocation-critical path: request decode, pair
// resolution and batch evaluation run in pooled per-request scratch
// (see batchcodec.go), the response in the pooled writer, and batches
// of 1024 pairs or more fan out across GOMAXPROCS CPUs through the
// labeling's parallel batch evaluator.
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
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/label"
	"repro/internal/live"
	"repro/internal/rpq"
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
}

// Server answers provenance queries over one store. It is an
// http.Handler; all methods are safe for concurrent use.
type Server struct {
	st             *store.Store
	scheme         label.Scheme
	cache          *sessionCache
	maxBatch       int
	ingest         bool
	maxIngestBytes int64
	maxRuns        int
	logf           func(format string, args ...any)
	runMu          runLocks
	adm            *admission
	brk            *breaker
	mux            *http.ServeMux

	// rpqMaxStates caps how many DFA states one POST /rpq evaluation may
	// lazily determinize before the pattern is rejected as pathological
	// (400): rpq.DefaultMaxDFAStates, lowered only by tests.
	rpqMaxStates int

	// escapeNames is namesNeedEscaping of the store's spec, decided once:
	// a store serves one spec.
	escapeNames bool

	// Streaming ingest state (nil/zero unless Config.EnableStream):
	// the live-session registry and the skeleton labeling feeding online
	// labelers. See stream.go.
	stream     bool
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

	// routes is the endpoint table New registers on mux; other counts
	// the requests no route matched (the mux's own 404s and 405s).
	routes []route
	other  atomic.Int64
}

// route is one endpoint, declared once: its mux pattern, the method a
// pattern without one requires, the key its served counter has in
// /healthz, the counter and the handler. New registers every route
// through one wrapper, so each is counted, method-checked and has its
// errors mapped by s.fail the same way.
type route struct {
	pattern string
	method  string
	key     string
	served  atomic.Int64
	h       func(http.ResponseWriter, *http.Request) error
}

// Served returns the number of requests dispatched per endpoint since
// the server started — the server-side ground truth a load harness
// (cmd/provload) diffs across a run to cross-check its client-side
// counts. A request counts under the route the mux matched, whatever
// its status; one no route matched counts as "other", and one the mux
// redirects to its cleaned path counts when the redirected request
// arrives. Requests admission control rejected with 429 are counted in
// AdmissionState instead.
func (s *Server) Served() map[string]int64 {
	m := make(map[string]int64, len(s.routes)+1)
	for i := range s.routes {
		m[s.routes[i].key] = s.routes[i].served.Load()
	}
	m["other"] = s.other.Load()
	return m
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
		escapeNames:    namesNeedEscaping(cfg.Store.Spec()),
		maxBatch:       cfg.MaxBatch,
		ingest:         cfg.EnableIngest,
		maxIngestBytes: cfg.MaxIngestBytes,
		maxRuns:        cfg.MaxRuns,
		rpqMaxStates:   rpq.DefaultMaxDFAStates,
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
		s.streamSkel = skel
		s.live = live.NewRegistry()
	}
	s.routes = []route{
		{pattern: "/healthz", method: http.MethodGet, key: "healthz", h: s.handleHealthz},
		{pattern: "/specs", method: http.MethodGet, key: "specs", h: s.handleSpecs},
		{pattern: "/runs", method: http.MethodGet, key: "runs", h: s.handleRuns},
		{pattern: "GET /runs/{name}", key: "status", h: s.handleRunStatus},
		{pattern: "PUT /runs/{name}", key: "put", h: s.handleIngest},
		{pattern: "DELETE /runs/{name}", key: "delete", h: s.handleDelete},
		{pattern: "POST /runs/{name}/events", key: "events", h: s.handleAppendEvents},
		{pattern: "POST /runs/{name}/finish", key: "finish", h: s.handleFinish},
		{pattern: "/reachable", method: http.MethodGet, key: "reachable", h: s.handleReachable},
		{pattern: "/batch", method: http.MethodPost, key: "batch", h: s.handleBatch},
		{pattern: "/lineage", method: http.MethodGet, key: "lineage", h: s.handleLineage},
		{pattern: "/rpq", method: http.MethodPost, key: "rpq", h: s.handleRPQ},
	}
	for i := range s.routes {
		rt := &s.routes[i]
		s.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			rt.served.Add(1)
			if rt.method != "" && r.Method != rt.method {
				w.Header().Set("Allow", rt.method)
				writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
				return
			}
			if err := rt.h(w, r); err != nil {
				s.fail(w, err)
			}
		})
	}
	return s, nil
}

// ServeHTTP implements http.Handler. /healthz bypasses admission so the
// server stays observable while shedding load; everything else pays the
// admission toll (rate limit + bounded concurrency) before dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/healthz" {
		release, ok := s.adm.admit(w, r)
		if !ok {
			return
		}
		defer release()
	}
	s.mux.ServeHTTP(w, r)
	if r.Pattern == "" {
		s.other.Add(1)
	}
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

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
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
		"served":    s.Served(),
	}
	if s.stream {
		body["live"] = s.live.Stats()
		body["streams_expired"] = s.streamsExpired.Load()
	}
	writeJSON(w, http.StatusOK, body)
	return nil
}

func (s *Server) handleSpecs(w http.ResponseWriter, r *http.Request) error {
	sp := s.st.Spec()
	respond().num("edges", sp.NumEdges()).
		array("modules", sp.NumVertices(), func(b []byte, v int) []byte { return appendJSONString(b, string(sp.NameOf(dag.VertexID(v)))) }).
		str("name", s.st.SpecName()).num("vertices", sp.NumVertices()).send(w, http.StatusOK)
	return nil
}

func (s *Server) handleRuns(w http.ResponseWriter, r *http.Request) error {
	if name := r.URL.Query().Get("run"); name != "" {
		return s.writeRunStatus(w, name)
	}
	if s.brk.isOpen() {
		return degraded("the storage backend is unavailable, run listing needs it")
	}
	runs, err := s.st.Runs()
	s.brk.note(err)
	if err != nil {
		return fmt.Errorf("listing runs: %w", err)
	}
	respond().array("runs", len(runs), func(b []byte, i int) []byte { return appendJSONString(b, runs[i]) }).send(w, http.StatusOK)
	return nil
}

func (s *Server) handleReachable(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	from, to := q.Get("from"), q.Get("to")
	if from == "" || to == "" {
		return badRequestf("missing 'from' or 'to' parameter")
	}
	view, release, err := s.resolveRun(q.Get("run"))
	if err != nil {
		return err
	}
	defer release()
	u, err := vertexParam(view.Namer(), from)
	if err != nil {
		return err
	}
	v, err := vertexParam(view.Namer(), to)
	if err != nil {
		return err
	}
	respond().boolean("by_context", view.ByContext(u, v)).str("from", from).
		boolean("reachable", view.Reachable(u, v)).str("run", q.Get("run")).str("to", to).send(w, http.StatusOK)
	return nil
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) error {
	// Bound the body by what maxBatch pairs could plausibly occupy.
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.maxBatch)*128+4096)
	sc := getBatchScratch()
	defer sc.release()
	if err := sc.readBody(r.Body); err != nil {
		return badRequestf("reading request body: %w", err)
	}
	if err := parseBatchRequest(sc.body, sc, s.maxBatch); err != nil {
		if errors.Is(err, errBatchTooLarge) {
			return fmt.Errorf("batch exceeds limit of %d pairs: %w", s.maxBatch, err)
		}
		return badRequestf("malformed request body: %w", err)
	}
	run := string(sc.run)
	view, release, err := s.resolveRun(run)
	if err != nil {
		return err
	}
	defer release()
	nm := view.Namer()
	for i, t := range sc.tokens {
		u, okU := t[0].resolve(nm)
		v, okV := t[1].resolve(nm)
		if !okU || !okV {
			bad := t[0].raw
			if okU {
				bad = t[1].raw
			}
			return notFound(fmt.Sprintf("pair %d: unknown vertex %q", i, bad))
		}
		sc.pairs = append(sc.pairs, [2]dag.VertexID{u, v})
	}
	sc.results = view.appendReachable(sc.results, sc.pairs)
	respond().str("run", run).num("count", len(sc.results)).bools("results", sc.results).send(w, http.StatusOK)
	return nil
}

func (s *Server) handleLineage(w http.ResponseWriter, r *http.Request) error {
	q := r.URL.Query()
	ref, dir := q.Get("vertex"), q.Get("dir")
	if ref == "" {
		return badRequestf("missing 'vertex' parameter")
	}
	if dir == "" {
		dir = "up"
	}
	if dir != "up" && dir != "down" {
		return badRequestf("dir must be 'up' or 'down', got %q", dir)
	}
	view, release, err := s.resolveRun(q.Get("run"))
	if err != nil {
		return err
	}
	defer release()
	nm := view.Namer()
	v, err := vertexParam(nm, ref)
	if err != nil {
		return err
	}
	jw := respond()
	jw.cone = view.AppendCone(jw.cone, v, dir == "up")
	jw.names("cone", nm, jw.cone, s.escapeNames).num("count", len(jw.cone)).
		str("direction", dir).str("run", q.Get("run")).str("vertex", ref).send(w, http.StatusOK)
	return nil
}

// badRequest is an error in the request itself: s.fail answers it 400
// with its message, unless it wraps a class that outranks it (an
// oversized body is 413 however it surfaced).
type badRequest struct{ err error }

func (e badRequest) Error() string { return e.err.Error() }
func (e badRequest) Unwrap() error { return e.err }

func badRequestf(format string, args ...any) error {
	return badRequest{fmt.Errorf(format, args...)}
}

// notFound is a missing run or vertex: it matches fs.ErrNotExist like
// the store's own misses, so s.fail answers it 404 with its message.
type notFound string

func (e notFound) Error() string      { return string(e) }
func (notFound) Is(target error) bool { return target == fs.ErrNotExist }

// degraded is a request shed in degraded mode. It unwraps to
// store.ErrTransient, so s.fail answers it 503 with Retry-After like
// any transient backend failure.
type degraded string

func (e degraded) Error() string { return "degraded mode: " + string(e) }
func (degraded) Unwrap() error   { return store.ErrTransient }

// errDisabled marks a write endpoint this server was not started with:
// s.fail answers it 403.
var errDisabled = errors.New("disabled")

// writeFailure is a failed store write (PUT, append, finish). A write
// that fails is the backend's or the server's fault, never a missing
// resource, even when the backend's error reads as not-exist (a
// vanished directory), so s.fail answers it 503 when transient and 500
// otherwise — never 404.
type writeFailure struct{ err error }

func (e writeFailure) Error() string { return e.err.Error() }
func (e writeFailure) Unwrap() error { return e.err }

func writeFailed(format string, args ...any) error {
	return writeFailure{fmt.Errorf(format, args...)}
}

// fail answers a request whose handling failed, mapping the error's
// class to its HTTP status (the package documentation's table). The
// classes are checked in this order:
//
//	*http.MaxBytesError     413  request body over its limit
//	errBatchTooLarge        413  /batch over Config.MaxBatch pairs
//	badRequest              400  malformed request
//	errDisabled             403  write endpoint not enabled
//	fs.ErrNotExist          404  unknown run, vertex or stream (not on a writeFailure)
//	*live.IncompleteError   409  stream does not yet describe a complete run
//	errFinished             409  stream target is already a stored run
//	store.IsTransient       503  transient backend failure or degraded mode, Retry-After
//	anything else           500
//
// The body is always {"error": message}. fail does no breaker
// accounting: handlers note backend outcomes at the backend call site,
// where a non-backend error cannot reset the strike count.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var (
		tooLarge *http.MaxBytesError
		bad      badRequest
		write    writeFailure
		inc      *live.IncompleteError
	)
	switch {
	case errors.As(err, &tooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
	case errors.Is(err, errBatchTooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, "%v", err)
	case errors.As(err, &bad):
		writeErr(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, errDisabled):
		writeErr(w, http.StatusForbidden, "%v", err)
	case errors.Is(err, fs.ErrNotExist) && !errors.As(err, &write):
		writeErr(w, http.StatusNotFound, "%v", err)
	case errors.As(err, &inc) || errors.Is(err, errFinished):
		writeErr(w, http.StatusConflict, "%v", err)
	case store.IsTransient(err):
		s.unavailable(w, "%v", err)
	default:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	}
}
