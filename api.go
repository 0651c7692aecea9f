package repro

import (
	"io"
	"math/rand"
	"net/http"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/engine"
	"repro/internal/events"
	"repro/internal/export"
	"repro/internal/label"
	"repro/internal/lineage"
	"repro/internal/online"
	"repro/internal/plan"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/server"
	"repro/internal/spec"
	"repro/internal/store"
	// Registers the fault:// store URL scheme (chaos-testing backend
	// wrapper), so OpenStoreURL and every CLI accept it.
	_ "repro/internal/store/faultinject"
	"repro/internal/workload"
	"repro/internal/xmlio"
)

// Core model types.
type (
	// Spec is a validated workflow specification (G, F, L).
	Spec = spec.Spec
	// SpecBuilder assembles specifications.
	SpecBuilder = spec.Builder
	// ModuleName is a unique module name in a specification.
	ModuleName = spec.ModuleName
	// Run is a workflow run conforming to a specification.
	Run = run.Run
	// ExecTree describes a run's fork/loop replication structure.
	ExecTree = run.ExecTree
	// Plan is an execution plan T_R with the context function.
	Plan = plan.Plan
	// VertexID identifies a vertex of a specification or run graph.
	VertexID = dag.VertexID
	// Labeling is a skeleton-labeled run answering reachability queries.
	Labeling = core.Labeling
	// Label is one vertex's reachability label.
	Label = core.Label
	// SpecScheme labels specification graphs (the skeleton labels).
	SpecScheme = label.Scheme
	// SpecLabeling is a labeled specification.
	SpecLabeling = label.Labeling
	// DataItem is a data item flowing over a run's channels.
	DataItem = provdata.Item
	// DataItemID identifies a data item.
	DataItemID = provdata.ItemID
	// DataAnnotation attaches data items to a run.
	DataAnnotation = provdata.Annotation
	// DataLabeling answers data-provenance queries (Section 6).
	DataLabeling = provdata.Labeling
	// OnlineLabeler labels a run incrementally while it executes (§9).
	OnlineLabeler = online.Labeler
	// OnlineCopy is a live fork/loop copy handle of an OnlineLabeler.
	OnlineCopy = online.Copy
	// LabelSnapshot is a deserialized label set bindable to a skeleton.
	LabelSnapshot = core.Snapshot
	// SnapshotVersion identifies the wire format a label snapshot was
	// decoded from (SKL1 or SKL2); writers emit only SKL2.
	SnapshotVersion = core.SnapshotVersion
	// EngineEvent is one workflow-engine log record.
	EngineEvent = events.Event
	// Engine simulates a workflow system executing a specification.
	Engine = engine.Engine
	// EnginePolicy makes the engine's dynamic control-flow choices.
	EnginePolicy = engine.Policy
	// RandomEnginePolicy is a geometric-distribution policy.
	RandomEnginePolicy = engine.RandomPolicy
	// Trace is the complete record of one simulated execution.
	Trace = engine.Trace
	// Namer renders run vertex display names and resolves them back,
	// each in constant time (a lookup tries at most ten digit splits),
	// from integer columns: no name is stored.
	Namer = run.Namer
	// DataStream registers data items of a still-running workflow (§6+§9).
	DataStream = provdata.Stream
	// Store is a provenance store (spec + runs + labels) over some
	// StoreBackend.
	Store = store.Store
	// StoreSession is one stored run opened for querying: its labels are
	// bound when it opens; its run document (graph and data items) is
	// decoded once, on the first Document call, and shared by every
	// caller after that. LabelData(ann, sess.Labels) labels the data
	// items Document returns for data-provenance queries.
	StoreSession = store.Session
	// StoreBackend is the blob-level storage substrate under a Store:
	// fs (one directory), mem (RAM), or any implementation passing
	// store/backendtest.
	StoreBackend = store.Backend
	// StoreStats describes a store's backend (kind, path or run count,
	// and the wrapped backend's stats for a wrapper).
	StoreStats = store.Stats
	// StoreRetryPolicy tunes WithRetryBackend's backoff.
	StoreRetryPolicy = store.RetryPolicy
	// QueryServer is a concurrent HTTP provenance query service over a
	// Store, with an LRU session cache, a batched query endpoint, an
	// optional write path (PUT and DELETE /runs/{name}, with
	// count-bounded retention via ServerConfig.MaxRuns /
	// Server.EnforceMaxRuns), admission control (bounded concurrency +
	// per-client rate limits), and warm-restart support
	// (SaveHotList/WarmFromHotList).
	QueryServer = server.Server
	// ServerConfig configures a QueryServer.
	ServerConfig = server.Config
	// ServerCacheStats reports the query server's session cache counters.
	ServerCacheStats = server.CacheStats
	// ServerAdmissionStats reports the query server's admission-control
	// counters (inflight/queued gauges, 429 reject counts).
	ServerAdmissionStats = server.AdmissionStats
	// ServerBreakerStats reports the query server's circuit-breaker state
	// (closed / open-degraded, strike and probe counters) as surfaced in
	// /healthz.
	ServerBreakerStats = server.BreakerStats
)

// Specification labeling schemes (Section 7).
var (
	// TCM precomputes the transitive closure matrix: O(1) spec queries,
	// n_G² bits of index.
	TCM SpecScheme = label.TCM{}
	// BFS stores nothing and searches the spec graph per query.
	BFS SpecScheme = label.BFS{}
	// DFS is BFS with depth-first search.
	DFS SpecScheme = label.DFS{}
	// Interval is the tree-cover interval index (Agrawal et al. 1989).
	Interval SpecScheme = label.Interval{}
	// Chain is the chain-decomposition index (Jagadish 1990).
	Chain SpecScheme = label.Chain{}
	// TwoHop is the 2-hop cover index (Cohen et al. 2002).
	TwoHop SpecScheme = label.TwoHop{}
	// Dual is a tree+link index after Dual Labeling (Wang et al. 2006).
	Dual SpecScheme = label.Dual{}
)

// NewSpecBuilder returns an empty specification builder.
func NewSpecBuilder() *SpecBuilder { return spec.NewBuilder() }

// PaperSpec returns the paper's running example (Figure 2).
func PaperSpec() *Spec { return spec.PaperSpec() }

// PaperRun returns the paper's Figure 3 run of PaperSpec, with its
// Figure 7 execution plan.
func PaperRun(s *Spec) (*Run, *Plan) { return run.Figure3Run(s) }

// SpecSchemes returns every available specification labeling scheme.
func SpecSchemes() []SpecScheme { return label.All() }

// SpecSchemeByName resolves "TCM", "BFS", "DFS", "Interval", "Chain" or "2-Hop".
func SpecSchemeByName(name string) (SpecScheme, error) { return label.ByName(name) }

// GenerateRun produces a random run of the specification with
// approximately targetVertices vertices, by the paper's fork/loop
// replication semantics, together with its ground-truth execution plan.
func GenerateRun(s *Spec, rng *rand.Rand, targetVertices int) (*Run, *Plan) {
	return run.GenerateSized(s, rng, targetVertices)
}

// MinimalRun produces the unique run executing every fork and loop once.
func MinimalRun(s *Spec) (*Run, *Plan) {
	return run.MustMaterialize(s, run.SingleExec(s))
}

// ConstructPlan recovers a run's execution plan and context from its
// graph alone, in linear time (Section 5).
func ConstructPlan(r *Run) (*Plan, error) {
	return plan.Construct(r.Spec, r.Graph, r.Origin)
}

// LabelRun labels a run with the skeleton-based scheme: the specification
// is labeled by the given scheme and the run by SKL (Algorithm 2). The
// returned labeling answers reachability in constant time plus at most
// one skeleton query (Algorithm 3).
func LabelRun(r *Run, scheme SpecScheme) (*Labeling, error) {
	skel, err := scheme.Build(r.Spec.Graph)
	if err != nil {
		return nil, err
	}
	return core.LabelRun(r, skel)
}

// LabelWithSkeleton labels a run reusing an existing specification
// labeling (the amortization the paper's Table 2 assumes: one skeleton
// labeling shared by all runs of the spec).
func LabelWithSkeleton(r *Run, skeleton SpecLabeling) (*Labeling, error) {
	return core.LabelRun(r, skeleton)
}

// LabelWithPlan labels a run whose execution plan is already known (e.g.
// from an engine log), skipping plan reconstruction.
func LabelWithPlan(r *Run, p *Plan, skeleton SpecLabeling) (*Labeling, error) {
	return core.LabelRunWithPlan(r, p, skeleton)
}

// LabelData builds data-provenance labels over a module labeling (§6).
func LabelData(a *DataAnnotation, l *Labeling) (*DataLabeling, error) {
	return provdata.LabelData(a, l)
}

// RandomData annotates a run with synthetic data items.
func RandomData(r *Run, rng *rand.Rand, meanPerEdge, shareProb float64) *DataAnnotation {
	return provdata.RandomItems(r, rng, meanPerEdge, shareProb)
}

// NewOnline starts an online labeler for a specification (§9): report
// fork/loop copies and module executions as they happen and query
// intermediate provenance immediately.
func NewOnline(s *Spec, skeleton SpecLabeling) *OnlineLabeler {
	return online.New(s, skeleton)
}

// SynthesizeSpec generates a random specification with exactly the given
// structural parameters (Section 8's synthetic workloads).
func SynthesizeSpec(rng *rand.Rand, nG, mG, tgSize, tgDepth int) (*Spec, error) {
	return workload.Synthesize(rng, workload.Params{NG: nG, MG: mG, TGSize: tgSize, TGDepth: tgDepth})
}

// StandInSpec synthesizes one of the six Table-1 workflows ("EBI",
// "PubMed", "QBLAST", "BioAID", "ProScan", "ProDisc") by name.
func StandInSpec(name string, seed int64) (*Spec, error) {
	return workload.StandIn(name, seed)
}

// WriteSpecXML and ReadSpecXML serialize specifications.
func WriteSpecXML(w io.Writer, s *Spec, name string) error { return xmlio.EncodeSpec(w, s, name) }

// ReadSpecXML decodes and validates a specification.
func ReadSpecXML(r io.Reader) (*Spec, string, error) { return xmlio.DecodeSpec(r) }

// WriteRunXML serializes a run and optional data annotation.
func WriteRunXML(w io.Writer, r *Run, a *DataAnnotation, workflowName string) error {
	return xmlio.EncodeRun(w, r, a, workflowName)
}

// ReadRunXML decodes and validates a run (and data annotation, if items
// are present) against its specification.
func ReadRunXML(rd io.Reader, s *Spec) (*Run, *DataAnnotation, error) {
	return xmlio.DecodeRun(rd, s)
}

// ReadLabelSnapshot deserializes labels persisted with Labeling.WriteTo;
// bind a skeleton labeling of the same specification to query them.
// Both wire formats ever written (SKL1, SKL2) are detected from the
// leading magic.
func ReadLabelSnapshot(r io.Reader) (*LabelSnapshot, error) { return core.ReadSnapshot(r) }

// Upstream returns every module execution v's output was derived from,
// by reverse traversal of the run graph.
func Upstream(r *Run, v VertexID) []VertexID { return lineage.Upstream(r, v) }

// Downstream returns every module execution affected by v's output.
func Downstream(r *Run, v VertexID) []VertexID { return lineage.Downstream(r, v) }

// UpstreamByLabels computes the upstream cone from stored labels alone,
// in ascending vertex ID (one comparison per plan context and at most
// one skeleton query per origin; no graph needed).
func UpstreamByLabels(l *Labeling, v VertexID) []VertexID {
	return lineage.UpstreamByLabels(l, v)
}

// DownstreamByLabels is the forward counterpart of UpstreamByLabels.
func DownstreamByLabels(l *Labeling, v VertexID) []VertexID {
	return lineage.DownstreamByLabels(l, v)
}

// Explain returns a concrete dependency path from u to v as evidence for
// a positive reachability answer, or nil if v does not depend on u.
func Explain(r *Run, u, v VertexID) []VertexID { return lineage.Explain(r, u, v) }

// EmitEvents renders a run and its execution plan as a workflow-engine
// event log (copy starts + module executions).
func EmitEvents(r *Run, p *Plan) []EngineEvent { return events.Emit(r, p) }

// WriteEventLog and ReadEventLog serialize engine event logs as text.
func WriteEventLog(w io.Writer, evs []EngineEvent) error { return events.WriteLog(w, evs) }

// ReadEventLog parses an engine event log.
func ReadEventLog(r io.Reader) ([]EngineEvent, error) { return events.ReadLog(r) }

// ReplayEvents drives an online labeler from an engine event log,
// labeling each module execution the moment its event arrives. The log
// goes through events.Applier, the checks a streaming session makes: it
// must follow EmitEvents' convention (copies numbered densely in start
// order, copy 0 the run), and a log that does not is refused whole.
func ReplayEvents(s *Spec, skeleton SpecLabeling, evs []EngineEvent) (*OnlineLabeler, error) {
	return events.Replay(s, skeleton, evs)
}

// NewEngine returns a simulated workflow engine for the specification.
func NewEngine(s *Spec, policy EnginePolicy, rng *rand.Rand) *Engine {
	return engine.New(s, policy, rng)
}

// DefaultEnginePolicy returns a moderate random execution policy.
func DefaultEnginePolicy() RandomEnginePolicy { return engine.DefaultPolicy() }

// WriteSpecDOT renders the specification as Graphviz DOT, with fork
// clusters and loop back-edges as in the paper's figures.
func WriteSpecDOT(w io.Writer, s *Spec, name string) error { return export.SpecDOT(w, s, name) }

// WriteRunDOT renders a run as DOT; pass a plan to color vertices by the
// kind of their fork/loop context, or nil for a plain rendering.
func WriteRunDOT(w io.Writer, r *Run, p *Plan, name string) error {
	return export.RunDOT(w, r, p, name)
}

// WritePlanDOT renders an execution plan tree as DOT.
func WritePlanDOT(w io.Writer, p *Plan, name string) error { return export.PlanDOT(w, p, name) }

// NewNamer names a run's vertices (b1, b2, ...) in O(n) time and about
// 13 bytes per vertex, for constant-time lookup in both directions.
func NewNamer(r *Run) *Namer { return run.NewNamer(r) }

// NewDataStream registers data items against any module reachability
// (e.g. an OnlineLabeler) and answers dependency queries immediately.
func NewDataStream(reach provdata.ModuleReachability) *DataStream {
	return provdata.NewStream(reach)
}

// CreateStore initializes an fs-backed provenance store directory for a
// specification.
func CreateStore(dir string, s *Spec, name string) (*Store, error) {
	return store.Create(dir, s, name)
}

// OpenStoreURL opens an existing store from a URL picking the backend:
// "fs://dir" (a bare path means the same) or "mem://dir" (preload the
// fs store at dir into RAM and serve from memory).
func OpenStoreURL(url string) (*Store, error) { return store.OpenURL(url) }

// NewMemStore returns a store over a fresh in-memory backend — the
// fastest substrate for tests, examples and ephemeral serving.
func NewMemStore(s *Spec, name string) (*Store, error) { return store.NewMem(s, name) }

// NewStoreOverBackend initializes a store over any StoreBackend
// implementation, persisting the spec through it. Custom backends should
// pass the conformance suite in internal/store/backendtest.
func NewStoreOverBackend(b StoreBackend, s *Spec, name string) (*Store, error) {
	return store.New(b, s, name)
}

// OpenStoreOverBackend loads an existing store from any StoreBackend.
func OpenStoreOverBackend(b StoreBackend) (*Store, error) { return store.OpenBackend(b) }

// WithRetryBackend wraps a backend so transient failures (see
// IsTransientStoreError) are retried with jittered exponential backoff
// before the caller ever sees them. The zero policy means 4 attempts
// from 2ms up to 250ms. Non-transient errors and exhausted budgets pass
// through unchanged; cmd/provserve's -retry flag is this wrapper.
func WithRetryBackend(b StoreBackend, p StoreRetryPolicy) StoreBackend {
	return store.WithRetry(b, p)
}

// IsTransientStoreError reports whether a store error is transient —
// safe to retry by the backend failure contract (no partial side effect
// on the failed call). See the failure model on StoreBackend.
func IsTransientStoreError(err error) bool { return store.IsTransient(err) }

// NewServer builds a provenance query server (an http.Handler) over an
// opened store. See cmd/provserve for the standalone daemon.
func NewServer(cfg ServerConfig) (*QueryServer, error) { return server.New(cfg) }

// Serve answers provenance queries over HTTP on addr until the listener
// fails; it is NewServer plus http.Server plumbing.
func Serve(addr string, cfg ServerConfig) error { return server.ListenAndServe(addr, cfg) }

// NewQueryHTTPServer wraps a handler (typically a QueryServer) in the
// http.Server configuration the service ships with — read/idle timeouts
// so slow or idle clients cannot pin connections forever. Use it when
// you need the *http.Server (graceful Shutdown, custom listeners)
// instead of the one-call Serve; cmd/provserve does.
func NewQueryHTTPServer(addr string, h http.Handler) *http.Server {
	return server.NewHTTPServer(addr, h)
}
