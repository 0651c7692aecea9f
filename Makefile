# The targets CI runs (see .github/workflows/ci.yml) — run the same
# commands locally with `make ci`.

GO ?= go
STORE ?= ./provstore
ADDR ?= :8080

# The current PR number: bench-json emits BENCH_$(PR).json against the
# checked-in pre-PR measurement bench/BASELINE_$(PR).json, extending the
# perf lineage cmd/benchtrend renders and gates on. Bump it (and check
# in a fresh baseline: `make bench-json` with the old number, then move
# the "benches" map into bench/BASELINE_<new>.json) once per PR.
PR ?= 10

.PHONY: build test race bench bench-store bench-json trend load-smoke chaos-smoke rpq-smoke fuzz-xml lint fmt vet serve ci

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

# Serving-path benchmarks — snapshot codecs (SKL1/SKL2 encode+decode),
# /batch reachability over fs and mem stores, and the ingest and delete
# write paths — rendered to BENCH_$(PR).json with the pre-PR baseline
# embedded, the per-PR artifact `make trend` diffs and gates on. Each
# go test runs as its own command so a failing bench fails the target
# instead of emitting a silently incomplete BENCH_$(PR).json.
bench-json:
	$(GO) test -run='^$$' -bench='BenchmarkSnapshotDecode|BenchmarkSnapshotEncode' -benchtime=100x -count=3 ./internal/core/ > bench-json.out
	$(GO) test -run='^$$' -bench='BenchmarkServerBatchReachable' -benchtime=50x -count=3 . >> bench-json.out
	$(GO) test -run='^$$' -bench='BenchmarkServerIngest|BenchmarkServerDelete|BenchmarkServerAppendEvents|BenchmarkServerRPQ' -benchtime=20x -count=3 . >> bench-json.out
	$(GO) run ./cmd/benchjson -baseline bench/BASELINE_$(PR).json -o BENCH_$(PR).json < bench-json.out
	@rm -f bench-json.out

# Cross-PR perf trajectory + regression gate over the BASELINE lineage
# and the current bench-json artifact (exits nonzero on a regression
# beyond tolerance; see cmd/benchtrend for the tolerance knobs).
trend: bench-json
	$(GO) run ./cmd/benchtrend -dir bench -current BENCH_$(PR).json -o TREND.md

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

# Time-boxed fuzzing of the run decoder against encoding/xml (the
# oracle kept in internal/xmlio's tests); the seed corpora of every
# fuzz target already run in `make test`.
fuzz-xml:
	$(GO) test -run '^$$' -fuzz FuzzDecodeRunOracle -fuzztime 30s ./internal/xmlio/

# Static analysis: cmd/provlint runs the repo-specific analyzer suite
# (internal/lint — %w wrapping in the store, documented lock discipline,
# route/counter registration, seeded randomness, never-dropped storage
# errors) over the whole module, fails on unsuppressed findings, and
# writes the provlint.v1 report CI uploads as an artifact.
lint:
	$(GO) run ./cmd/provlint -o LINT.json

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

serve:
	$(GO) run ./cmd/provserve -store $(STORE) -addr $(ADDR)

ci: fmt vet lint build race bench bench-store fuzz-xml load-smoke chaos-smoke rpq-smoke
