// Package repro is a production-quality Go implementation of the
// skeleton-based reachability labeling scheme for workflow provenance of
// Bao, Davidson, Khanna and Roy, "An Optimal Labeling Scheme for Workflow
// Provenance Using Skeleton Labels" (SIGMOD 2010).
//
// # Overview
//
// Scientific workflow systems answer provenance queries ("does this
// output depend on that input?") by reachability tests over the run DAG.
// General DAG reachability labels need linear-length labels, but workflow
// runs are not arbitrary DAGs: each run derives from a fixed
// specification by replicating fork subgraphs in parallel and loop
// subgraphs in series. This library exploits that structure. It labels
// the (small) specification once with any reachability scheme — the
// skeleton labels — and labels each run with three preorder positions of
// the vertex's fork/loop context in the run's execution plan plus a
// reference to the skeleton label. For a fixed specification the result
// is optimal: logarithmic-length labels built in linear time answering
// queries in constant time.
//
// # Quick start
//
//	b := repro.NewSpecBuilder()
//	b.Chain("a", "b", "c", "h")
//	b.Chain("a", "d", "e", "f", "g", "h")
//	b.Fork("a", "h", "b", "c")
//	b.Loop("b", "c")
//	spec, err := b.Build()
//	...
//	run, _ := repro.GenerateRun(spec, rand.New(rand.NewSource(1)), 10_000)
//	labeled, err := repro.LabelRun(run, repro.TCM)
//	reachable := labeled.Reachable(u, v)
//
// # Serving stored provenance
//
// Labels are computed once at ingest and then serve queries forever:
// persist labeled runs with a Store and answer reachability over HTTP
// with the concurrent query service (an LRU session cache keeps hot runs
// in memory, so cache-hit queries do zero backend I/O):
//
//	st, _ := repro.CreateStore("provstore", spec, "my-workflow")
//	_ = st.PutRun("r1", run, nil, repro.TCM)
//	log.Fatal(repro.Serve(":8080", repro.ServerConfig{Store: st}))
//
// or standalone: `provserve -store provstore`, then
//
//	curl 'localhost:8080/reachable?run=r1&from=b1&to=c3'
//	curl -d '{"run":"r1","pairs":[["b1","c3"],["c1","b2"]]}' localhost:8080/batch
//
// # The write path: remote ingest
//
// With ServerConfig.EnableIngest (or `provserve -ingest`) the server
// also accepts new runs over HTTP — the paper's dynamic-capture setting,
// where runs of a fixed specification arrive continuously and must
// become queryable without relabeling anything already stored:
//
//	curl -X PUT --data-binary @run.xml localhost:8080/runs/r2
//	provquery -put http://localhost:8080 -run run.xml -as r2 -from b1 -to c3
//
// The body is the xmlio run document (data items inline). The server
// decodes and validates it against the store's specification, labels it
// under the serving scheme, persists it through store.PutRun, refreshes
// the session cache, and answers with the stored snapshot's version and
// size; the very next /reachable, /batch or /lineage query sees the new
// run. PUT of an existing name overwrites it: the server serializes
// same-name writes and loads on a per-name lock, so queries through
// this server see the complete old run or the complete new run, never a
// torn mix, while distinct names ingest in parallel. (Processes writing
// the same store name from outside the server are the deployment's to
// serialize, per the StoreBackend contract.)
//
// # Streaming ingest: live runs over an event log
//
// With ServerConfig.EnableStream (or `provserve -stream`) a run can be
// ingested while the workflow executes instead of as one post-hoc
// document. POST /runs/{name}/events appends a batch of engine events
// to a live run that answers /reachable, /batch and /lineage
// immediately, GET /runs/{name} reports its progress, and POST
// /runs/{name}/finish seals it into a stored run indistinguishable
// from a PUT ingest — the differential tests assert byte-identical
// query answers between the two paths. /finish labels the run with the
// execution plan its copy events describe (LabelWithPlan, the paper's
// "with execution plan & context" setting) instead of reconstructing
// one from the graph: answers and the stored run document equal a
// PUT's, while the label snapshot may be laid out differently on some
// specifications, since the two plans can order a node's children
// differently.
//
// The wire format is the line-oriented engine event log (EmitEvents,
// WriteEventLog, ReadEventLog):
//
//	copy 3 parent 1 hnode 7    the plan expands hierarchy node 7 as copy 3
//	exec b copy 3              module b executes inside copy 3
//
// Each append carries the sequence number of its first event
// (?offset=N; omit it to append at the current cursor). The cursor
// makes retries idempotent: events the server already holds are
// deduplicated against history and only the surplus applies; a batch
// past the cursor is a gap and a batch contradicting history is a
// conflict, both answered 409 with the current cursor so a client
// resyncs with one status GET. `provquery -append <base-url> -run
// <log.events> -as <name>` implements that client loop, and `provquery
// -finish` seals the run.
//
// Durability is write-ahead: an accepted batch is appended to a
// per-run event-log blob (Backend.AppendEventLog) before it is
// acknowledged or applied. That log is the stream's only durable copy:
// the online scheme labels a run from its event sequence alone, so
// crash recovery replays the log and no acknowledged event is ever lost
// — a SIGKILL mid-stream followed by a restart resumes exactly at the
// acknowledged cursor. The one other blob a stream can get is a
// checkpoint, written only when recovery fences the torn last record a
// crashed append left (so the garbage is never parsed); DELETE, /finish
// and the sweeps remove the log and any checkpoint. Live-session gauges
// (open sessions, events appended, renumbers, replays, checkpoints)
// ride on /healthz under "live".
//
// # Regular path queries
//
// POST /rpq generalizes /reachable from "is there a path" to "is
// there a path whose module labels spell this regular expression". A
// path v0 → … → vk spells the module labels of v1..vk — the start
// vertex contributes nothing — so the empty path from a vertex to
// itself spells the empty word, and a pattern matches the pair (u, v)
// iff some u→v path spells a word in its language. The pattern
// grammar (internal/rpq) has module names and the wildcard "." as
// atoms, whitespace concatenation, "|" alternation, "*"/"+"/"?"
// quantifiers and "()" grouping; an unknown module name parses but
// never matches.
//
// Evaluation compiles the pattern to a Thompson NFA and walks the
// (vertex, state) product graph breadth-first with two bounds. First,
// the NFA is determinized lazily into a DFA with a hard state budget
// of 4096 states (internal/rpq's DefaultMaxDFAStates): each graph step
// costs one memoized DFA transition, and a pattern whose subset
// construction would exceed the budget is rejected as a client error
// rather than growing without bound. Second — the label-pruning guarantee — a
// product state (y, q) is never expanded unless y == to or the
// skeleton labels certify Reachable(y, to): every vertex the evaluator
// touches lies on some u→v path, so the walk explores the subgraph
// between the endpoints instead of everything downstream of u, at one
// constant-time label probe per edge. Pruning never changes answers,
// only work: a deliberately naive automaton-times-BFS oracle
// (dag.MatchAutomaton, no labels involved) and the production engine
// are pinned to identical verdicts by TestRPQDifferential across
// randomized runs and patterns, and TestRPQEndToEnd extends the pin
// over the wire — including live streaming sessions, which answer
// /rpq as soon as the streamed prefix describes a complete run (409
// before that) and byte-identically before and after /finish.
//
// # Run lifecycle: create, overwrite, delete, retention
//
// With deletion the Backend interface covers the full CRUD cycle, and
// each edge carries an ordering guarantee:
//
//   - Create/overwrite (Store.PutRun, PUT /runs/{name}): the label
//     snapshot becomes readable no later than the run document
//     (labels-before-document), so a reader that can see a run can
//     always read its labels. On disk the .skl is durably renamed into
//     place before the .xml.
//   - Delete (Store.DeleteRun, DELETE /runs/{name}): the mirror — the
//     document becomes unreadable no earlier than the labels
//     (document-before-labels removal), so a still-visible run never
//     loses its snapshot mid-delete. On disk the .xml is durably
//     removed before the .skl.
//   - Crash debris: either ordering can strand an orphaned .skl with no
//     sibling .xml; the fs backend sweeps those on store open and on
//     delete (throttled to once per second, so bulk retention sweeps
//     stay linear), so they never accumulate.
//   - Cache coherence: DELETE holds the same per-name write lock as
//     PUT across the backend delete and the session-cache invalidation,
//     and the cache fences in-flight loads by generation — a load that
//     overlapped a delete or overwrite can hand its (stale) session to
//     the requests that were already waiting on it, but can never land
//     it in the cache. The very next query after a DELETE answers 404.
//   - Deleting is gated with the write paths (EnableIngest / -ingest or
//     EnableStream / -stream): a read-only server answers 403; a
//     missing run answers 404. With streaming enabled, DELETE also
//     aborts a live stream under the name, clearing its event log and
//     any checkpoint so the name can stream again from offset zero; it
//     answers 200 only once both are gone (a failed clear is a 503 and
//     leaves the stream live for the retry).
//
// Retention builds on deletion: `provserve -ingest -max-runs N` (or
// ServerConfig.MaxRuns / Server.EnforceMaxRuns in-process) sweeps after
// every ingest, deleting least-valuable runs until at most N remain —
// cold (never-queried) runs go first, then cached sessions in LRU
// order, and the just-ingested run is never its own victim. A
// long-lived ingesting server therefore holds a bounded working set
// instead of accumulating runs forever. `provquery -delete <base-url>
// -run <name>` is the command-line client for one-off deletion. The
// warm-restart hot list participates too: Store.WriteHotList prunes
// names the store no longer holds, and a stale .hot entry (deleted
// behind the store's back) costs a logged skip at warm preload, never a
// failed startup. store.Copy skips runs deleted mid-copy, so retention
// can run against a store that is concurrently being replicated.
//
// # Admission control
//
// Every endpoint but /healthz sits behind an admission layer: at most
// MaxInflight requests execute concurrently, up to QueueDepth more wait
// for a slot, and everything beyond that — or past an optional
// per-client token-bucket rate (RatePerClient/RateBurst, keyed by
// X-Client-ID or remote host) — is answered 429 with a Retry-After the
// client can honor. A cold-cache stampede or an ingest burst therefore
// degrades into queued-then-shed load with bounded memory instead of
// unbounded in-flight labelings. /healthz reports the gauges
// (inflight, queued, peak, rejects) alongside cache and store stats.
//
// # Warm restarts
//
// `provserve -warm` closes the loop between restarts: on graceful
// shutdown the server saves which sessions were resident in the cache
// (the hot list, a meta blob on the store written through the
// StoreBackend interface), and the next `-warm` start preloads exactly
// those sessions before accepting traffic — the busiest runs answer
// their first post-restart query as a cache hit, not a cold load.
// In-process, Server.SaveHotList and Server.WarmFromHotList expose the
// same steps.
//
// # Storage backends
//
// A Store is backend-agnostic logic (validation, labeling, snapshot
// binding) over the blob-level StoreBackend interface, so the same
// labeling and query layer runs on interchangeable substrates. Two
// backends ship with the library, openable by URL with OpenStoreURL and
// `provserve -store <url>`:
//
//	fs://dir          one directory on disk (a bare path means the same);
//	                  writes are atomic temp-file+rename
//	mem://dir         the fs store at dir preloaded into RAM: ephemeral
//	                  serving with zero disk I/O even on cache misses
//
// An fs store spans several disks when its directory sits on a volume
// built from them (LVM, RAID 0). In-process, NewMemStore builds an
// ephemeral store for tests and demos, and NewStoreOverBackend accepts
// any custom StoreBackend (e.g. a future object-store layout) — the
// conformance suite in internal/store/backendtest defines the contract.
//
// # Failure model
//
// Backends distinguish transient faults from permanent ones with one
// sentinel: an error wrapping store.ErrTransient (test with
// IsTransientStoreError) says the operation may succeed if simply
// retried, and — the load-bearing half of the contract — that a
// transient failure of a non-idempotent operation left no partial side
// effect behind, so retrying is uniformly safe with no read-back.
// Two storage-specific failures calibrate the line:
//
//   - A torn event-log append (power cut mid-write) is NOT transient:
//     a prefix of the batch may have landed, so blind retry could
//     duplicate events. The backend surfaces it as a permanent error
//     and stream recovery — which replays only complete, parseable log
//     lines — owns the repair.
//   - A partial run write IS transient: run snapshots are written
//     whole-blob, so the overwrite on retry heals any debris.
//
// WithRetryBackend (store.WithRetry; `provserve -retry N`, `provload
// -retry N`) wraps any backend in that contract: transient errors are
// retried with jittered exponential backoff, permanent errors pass
// through untouched, and retry/giveup counters ride on Stat().
//
// Above retries sits the server's circuit breaker
// (ServerConfig.BreakerThreshold/BreakerCooldown, `provserve
// -breaker-threshold`): after N consecutive transient backend failures
// the server flips into degraded read-only mode — queries over
// cache-resident and live sessions keep answering, while writes and
// cache-miss reads answer 503 with a Retry-After instead of hammering
// a sick backend. A background probe re-tests the backend every
// cooldown and any non-transient outcome heals the breaker; /healthz
// reports "degraded" plus breaker state, consecutive-failure count and
// probe totals throughout.
//
// Streaming ingest adds two recovery knobs: `-recover-at-start`
// (Server.RecoverStreams) rebuilds every interrupted live stream
// before the listener opens — finished runs win over stale stream
// state, which is cleaned — instead of paying replay latency on first
// touch, and `-stream-ttl` (Server.SweepIdleStreams) expires live
// streams idle past the TTL, dropping their session, event log and
// checkpoint so abandoned streams cannot pin memory and names forever.
// The provquery -append client retries transient 503/network failures
// with capped backoff, honoring Retry-After and resyncing its cursor
// from the server's status GET, so an interrupted stream resumes
// without duplicating events.
//
// The whole stack is exercised by fault injection: the fault:// store
// URL (internal/store/faultinject; composable over any inner URL, e.g.
// `fault://rate=0.05,seed=1/mem://./provstore`) wraps a backend with a
// programmable fault plan — per-op transient error rates, injected
// latency, torn append tails, partial run writes, fail-N-then-succeed
// scripts, deterministically seeded. The chaos suite (TestChaos, `make
// chaos-smoke` in CI) drives a server over a faulty backend with
// concurrent reads, ingests, deletes and streams, then proves no
// acknowledged event was lost and query answers are byte-identical to
// a fault-free twin once the faults stop.
//
// # Snapshot wire format versioning
//
// Stored label snapshots carry a version magic. The policy: readers
// accept every version ever shipped, and writers emit only the newest;
// a new version goes behind a new magic and retires the previous
// writer, never the previous reader. The newest is SKL2, a columnar
// block format (the four label components are stored as independently
// compressed columns — constant, delta-varint or fixed-width per block)
// that bulk-decodes in a single pass. SKL1, the row-major format before
// it, is still decoded, so stores written before SKL2 keep loading and
// store.Copy replicates either format untouched; since nothing writes
// SKL1 any more, a checked-in fixture (internal/core/testdata) pins its
// reader. On the paper's Fig-13 run sizes SKL2 cuts snapshots from ~6.8
// to ~4.0 bytes/label and decoded ~3.7x faster than the old SKL1
// streaming reader (see BENCH_3.json; tracked by
// BenchmarkSnapshotDecode).
//
// Both readers decode into the paper's factored labels: a context and
// an origin per vertex, and one (Q2, Q3) row per context. That is their
// one divergence from the formats as written: they reject a label set
// no labeler writes, either a header declaring more contexts (n⁺_T)
// than labels, or one Q1 given two different (Q2, Q3).
//
// # Benchmarks and the perf trend gate
//
// Serving-path performance is tracked across PRs as a lineage of JSON
// artifacts in the provbench.v1 schema:
//
//	{
//	  "schema": "provbench.v1",
//	  "go": "go1.24.x linux/amd64",
//	  "benches": {
//	    "ServerBatchReachable/pairs=1024": {
//	      "ns_op": 107131, "b_op": 10034, "allocs_op": 22, "mb_s": 0
//	    },
//	    ...
//	  },
//	  "baseline": { ...same shape, the pre-PR measurement, embedded... }
//	}
//
// Each bench name maps to the best (minimum ns/op) of -count=3 runs;
// mb_s is nonzero only for throughput-reporting benchmarks. bench/
// holds one checked-in BASELINE_<n>.json per PR — the measurement taken
// on the pre-PR tree — and the largest n is the current PR number, so
// checking in a baseline is the bump.
//
// `make trend` runs the serving-path benchmarks and hands their output
// to cmd/benchtrend, the one bench tool: it parses the `go test -bench`
// lines (trend.ParseBench), writes BENCH_<n>.json with
// BASELINE_<n>.json embedded, renders the whole lineage as per-metric
// trajectory tables (TREND.md), and gates: the current run fails if any
// benchmark regresses past BOTH a relative tolerance and an absolute
// noise floor — ns/op +50% and >50ns (wall time is noisy on shared
// runners), B/op +25% and >64B, allocs/op +10% and >2 allocs
// (deterministic, the real teeth). A B/op or allocs/op of 0 is
// recorded as "b_op": 0 and gated like any other baseline, so a
// benchmark that allocated nothing fails once it allocates past the
// floor; an absent figure was not reported and is not gated.
// Benchmarks missing from either side (added, renamed, retired) are
// reported but never fail the gate, so refactors don't have to ship
// baseline edits in the same change. Every CI step is one Makefile
// target, uploading BENCH_*.json and TREND.md as artifacts; `make ci`
// runs the same targets locally.
//
// # Static analysis: mechanically enforced invariants
//
// The conventions those guarantees rest on — %w wrapping inside the
// store (so errors.Is transient classification survives), documented
// mutex guards, route/counter registration on /healthz, seeded
// randomness, never-dropped storage errors — are enforced by a
// stdlib-only static-analysis suite: `make lint` / cmd/provlint, with
// TestLintRepoClean running the same analyzers as a tier-1 test.
// Exceptions are declared at the site as
// `//provlint:ignore <analyzer> <reason>` with a mandatory reason.
// internal/lint's package documentation ("# Enforced invariants")
// explains why each invariant is load-bearing.
//
// For macro numbers, cmd/provload drives a real server (or a
// self-served in-process one) with open-loop multi-tenant load —
// zipfian run popularity, configurable traffic mix — and emits latency
// percentiles, throughput and SLO verdicts (provload.v1 JSON);
// `make load-smoke` is the CI-sized run.
//
// See examples/ for complete programs, cmd/provbench for the paper's
// full experimental suite, cmd/provserve for the query daemon, and
// cmd/provload + cmd/benchtrend for the performance tooling.
package repro
