# The targets CI runs (see .github/workflows/ci.yml) — run the same
# commands locally with `make ci`.

GO ?= go
STORE ?= ./provstore
ADDR ?= :8080

# The current PR number: the largest n among the checked-in
# bench/BASELINE_<n>.json files. `make trend` records BENCH_$(PR).json
# against the pre-PR measurement bench/BASELINE_$(PR).json, extending
# the perf lineage cmd/benchtrend renders and gates on. Checking in the
# next baseline is the bump: before changing any code, run `make trend`
# on the unchanged tree (its gate verdict does not matter here), then
# copy the "schema", "go" and "benches" fields of BENCH_$(PR).json into
# bench/BASELINE_<new>.json.
PR ?= $(shell ls bench | sed -n 's/^BASELINE_\([0-9][0-9]*\)\.json$$/\1/p' | sort -n | tail -n 1)

.PHONY: build test race bench bench-store bench-harness trend load-smoke chaos-smoke rpq-smoke fuzz lint loc fmt vet serve ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Store-backend (fs + mem) and server /batch benchmarks at a few
# iterations, so a regression in either substrate or the serving hot
# path shows up even in the quick CI smoke.
bench-store:
	$(GO) test -run='^$$' -bench='BenchmarkStore|BenchmarkServerBatchReachable' -benchtime=3x ./internal/store/ .

# perfbench is its own module, so `go build ./...` never compiles it:
# vet and test it here, or an internal API change breaks the benchmark
# harness unseen.
bench-harness:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Serving-path benchmarks — the SKL2 snapshot codec (encode+decode),
# the label-only lineage cone on 5,000-vertex stand-in runs,
# /batch reachability over fs and mem stores, the cold-load path (every
# /reachable a cache miss) and its per-stage split, /lineage over a
# resident run and its split into cone and name encode, the ingest,
# delete, stream-append, stream-finish and /rpq paths, the per-stage
# split of ingest, stream append, stream finish and /rpq (compile and
# walk), and plan construction alone — recorded by
# cmd/benchtrend as BENCH_$(PR).json with bench/BASELINE_$(PR).json
# embedded, then rendered with the whole lineage as TREND.md and gated:
# the target fails on a regression beyond tolerance (see
# cmd/benchtrend). Each go test runs as its own command
# so a failing bench fails the target instead of recording a silently
# incomplete BENCH_$(PR).json. The write-path rows run with GOGC=off:
# their allocs/op otherwise move with when a collection happens to run
# (each benchmark run still starts with the runtime.GC the testing
# package forces, so the heap stays bounded by one run).
trend:
	$(GO) test -run='^$$' -bench='BenchmarkSnapshotDecode|BenchmarkSnapshotEncode|BenchmarkAppendCone' -benchtime=100x -count=3 ./internal/core/ > trend.out
	$(GO) test -run='^$$' -bench='BenchmarkServerBatchReachable' -benchtime=50x -count=3 . >> trend.out
	$(GO) test -run='^$$' -bench='BenchmarkServerColdRead|BenchmarkColdLoad' -benchtime=200x -count=3 . >> trend.out
	$(GO) test -run='^$$' -bench='BenchmarkServerLineage|BenchmarkLineageStages' -benchtime=200x -count=3 . >> trend.out
	GOGC=off $(GO) test -run='^$$' -bench='BenchmarkServerIngest|BenchmarkServerDelete|BenchmarkServerAppendEvents|BenchmarkServerFinish' -benchtime=20x -count=3 . >> trend.out
	$(GO) test -run='^$$' -bench='BenchmarkServerRPQ|BenchmarkRPQStages' -benchtime=200x -count=3 . >> trend.out
	$(GO) test -run='^$$' -bench='BenchmarkIngestStages|BenchmarkAppendStages|BenchmarkFinishStages|BenchmarkConstructPlan' -benchtime=20x -count=3 . >> trend.out
	$(GO) run ./cmd/benchtrend -dir bench -bench trend.out -current BENCH_$(PR).json -o TREND.md
	@rm -f trend.out

# Short open-loop load run against an in-process mem-store server:
# mixed reachable/batch/lineage/put/delete/stream traffic, zipfian
# popularity, SLO verdicts logged and enforced (see cmd/provload for
# the knobs).
load-smoke:
	$(GO) run ./cmd/provload -store mem: -runs 24 -run-size 300 -clients 8 \
		-mix reachable=55,batch=15,lineage=5,put=8,delete=2,stream=15 \
		-rate 400 -duration 3s -slo-read-p99 250ms -slo-write-p99 1s \
		-slo-error-rate 0 -fail-on-slo -quiet -report PROVLOAD.json
	@echo "load-smoke: report in PROVLOAD.json"

# Chaos smoke: the in-process chaos suite (concurrent traffic over a
# fault-injected backend, then a differential check against a
# fault-free twin) plus a short provload run over a fault:// store with
# retries — asserting the read SLO and a zero error rate survive ~5%
# injected transient faults.
chaos-smoke:
	$(GO) test -race -count=1 -run 'TestChaos' .
	$(GO) run ./cmd/provload -store 'fault://rate=0.05,seed=1/mem:' -retry 4 \
		-runs 16 -run-size 250 -clients 6 \
		-mix reachable=55,batch=15,lineage=5,put=8,delete=2,stream=15 \
		-rate 250 -duration 3s -slo-read-p99 500ms -slo-write-p99 2s \
		-slo-error-rate 0 -fail-on-slo -quiet -report CHAOS_LOAD.json
	@echo "chaos-smoke: report in CHAOS_LOAD.json"

# RPQ smoke: the regular-path-query differential + over-the-wire e2e
# battery under -race, then a short provload run with rpq traffic in
# the mix — asserting path queries hold the read SLO alongside the
# usual traffic.
rpq-smoke:
	$(GO) test -race -count=1 -run 'TestRPQ' .
	$(GO) run ./cmd/provload -store mem: -runs 16 -run-size 250 -clients 6 \
		-mix reachable=40,batch=10,lineage=5,rpq=30,put=8,delete=2 \
		-rate 300 -duration 3s -slo-read-p99 250ms -slo-write-p99 1s \
		-slo-error-rate 0 -fail-on-slo -quiet -report RPQ_LOAD.json
	@echo "rpq-smoke: report in RPQ_LOAD.json"

# Time-boxed fuzzing against the oracles kept in the tests: the run
# decoder against encoding/xml (internal/xmlio), the label snapshot
# decoder on untrusted bytes (whatever it accepts must round-trip
# through SKL2), the snapshot readers and NewSnapshot against the
# per-label reference decoder they replaced (the same errors, columns
# and span index), and context-grouped lineage cones against the
# per-vertex label scan over any snapshot the decoder accepts
# (internal/core), labels from a materialized execution plan against
# labels from plan.Construct's on every vertex pair of random runs
# (internal/core), and the event-log parser against the
# bufio/Sscanf parser it replaced (internal/events), the /batch and
# /rpq request decoders against encoding/json (internal/server), and the
# vertex namer, grown by Add and built in two counting passes, against
# Run.NameOf and each other
# (internal/run), graphs built by dag.FromEdges against plain
# adjacency lists built edge by edge (internal/dag), the /rpq product
# walk on fuzzed DAGs against dag.MatchAutomaton and the map-based walk
# it replaced (internal/rpq), one verdict per event log from
# events.Replay and a live session, with the same reachability when
# both accept (internal/live), and the PUT write
# path (internal/server), where every
# accepted body must be stored byte for byte and say what its run's
# canonical encoding says. The seed corpora of every fuzz target already run in
# `make test`. FuzzReadSnapshot's seeds are 2 KB label fixtures: the
# default minimization of one new input (up to 60 s) would take the
# whole run, so it is capped.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeRunOracle -fuzztime 30s ./internal/xmlio/
	$(GO) test -run '^$$' -fuzz FuzzIngestRun -fuzztime 30s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzReadSnapshot -fuzztime 30s -fuzzminimizetime 2s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecodeOracle -fuzztime 30s -fuzzminimizetime 2s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzConeOracle -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzMaterializedPlanOracle -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzReadLogOracle -fuzztime 30s ./internal/events/
	$(GO) test -run '^$$' -fuzz FuzzBatchRequestOracle -fuzztime 30s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzRPQRequestOracle -fuzztime 30s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzNamerOracle -fuzztime 30s ./internal/run/
	$(GO) test -run '^$$' -fuzz FuzzGraphOracle -fuzztime 30s ./internal/dag/
	$(GO) test -run '^$$' -fuzz FuzzRPQEvalOracle -fuzztime 30s ./internal/rpq/
	$(GO) test -run '^$$' -fuzz FuzzReplayVerdict -fuzztime 30s ./internal/live/

# Static analysis: cmd/provlint runs the repo-specific analyzer suite
# (internal/lint — %w wrapping in the store, documented lock discipline,
# route/counter registration, seeded randomness, never-dropped storage
# errors) over the whole module, fails on unsuppressed findings, and
# writes the provlint.v1 report CI uploads as an artifact.
lint:
	$(GO) run ./cmd/provlint -o LINT.json

# Code size: non-blank, non-comment, non-test Go lines per package and
# in total (go list picks each package's non-test files; awk drops blank
# and //-comment lines), then internal/server's non-test files by plain
# wc -l, comments and blanks included. Deleting code counts as progress,
# so these numbers are tracked next to the perf artifacts.
loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}' ./... | \
	while read -r pkg dir files; do \
		[ -n "$$files" ] || continue; \
		(cd "$$dir" && cat $$files) | awk -v pkg="$$pkg" \
			'{ sub(/^[ \t]+/, "") } $$0 == "" || /^\/\// { next } { n++ } END { printf "%7d %s\n", n, pkg }'; \
	done | awk '{ print; total += $$1 } END { printf "%7d total\n", total }'
	@$(GO) list -f '{{.Dir}} {{join .GoFiles " "}}' ./internal/server | \
	while read -r dir files; do (cd "$$dir" && cat $$files); done | \
		awk 'END { printf "%7d repro/internal/server (wc -l, non-test)\n", NR }'

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

serve:
	$(GO) run ./cmd/provserve -store $(STORE) -addr $(ADDR)

ci: fmt vet lint build loc race bench bench-store bench-harness fuzz load-smoke chaos-smoke rpq-smoke trend
