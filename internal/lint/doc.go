// Package lint is a self-contained static-analysis framework and the
// repo-specific analyzers behind cmd/provlint and the tier-1
// TestLintRepoClean gate. It is built entirely on the standard
// library's go/parser, go/types and go/importer (source mode) — no
// golang.org/x/tools — so it loads, type-checks and analyzes the whole
// module fully offline.
//
// An Analyzer walks one type-checked Package and reports
// position-tagged diagnostics. Findings can be suppressed at the site
// with a mandatory reason:
//
//	//provlint:ignore <analyzer> <reason>
//
// on the flagged line or the line directly above it. A directive
// without a reason is itself a finding and suppresses nothing — the
// reason is the point: every suppression in the tree documents why the
// invariant legitimately does not apply there. Suppressed findings
// still appear (flagged, with their reason) in the provlint.v1 JSON
// report that `provlint -json` emits and CI uploads as LINT.json.
//
// # Enforced invariants
//
// Each analyzer mechanizes an invariant that earlier PRs established
// by convention and that a reviewer cannot reliably re-check by eye:
//
//   - errwrap: inside repro/internal/store/..., fmt.Errorf applied to
//     an error-typed argument must use %w, never %v/%s/%q. The store's
//     failure model classifies errors with errors.Is(err, ErrTransient)
//     through arbitrarily deep wrap chains; one %v flattens the chain
//     and silently turns a retryable fault into a permanent one,
//     defeating WithRetry and the server's circuit breaker. (Exactly
//     this bug existed in faultinject.ParsePlan until this PR.)
//
//   - guardedby: a struct field commented "guarded by <mu>" may only
//     be touched by functions that lock <mu> (Lock/RLock/TryLock/
//     TryRLock on it) or whose doc comment states the caller holds it
//     ("caller holds mu", "mu is held", ...). The check is
//     function-granular, not path-sensitive — deliberately simple, it
//     catches the common regression: a new accessor that forgets the
//     mutex entirely.
//
//   - counterreg: in internal/server, every (*http.ServeMux).Handle or
//     HandleFunc call must pass the pattern field of a route table
//     entry. The table's one wrapper counts each endpoint in /healthz,
//     checks its method and maps its errors; an endpoint registered
//     around it would serve traffic that silently lands nowhere — the
//     kind of drift that only shows up during an incident.
//
//   - seededrand: no calls to math/rand's top-level (process-global,
//     unseeded) functions outside _test.go files. Reproducibility is
//     load-bearing here: fault plans replay byte-identically from a
//     seed, the RPQ differential battery and run generation take
//     explicit seeds. The sanctioned form is a locally seeded
//     *rand.Rand via rand.New(rand.NewSource(seed)).
//
//   - droppederr: no `_ =` / `, _ :=` discards of error results from
//     store.Backend or store.Store calls in non-test code. The
//     resilience layer's guarantees (labels-before-document ordering,
//     acknowledged-means-durable streaming) assume write errors are
//     observed; a best-effort drop is allowed only with an ignore
//     directive explaining why it is safe.
//
// The analyzers are pinned three ways: golden fixtures under
// testdata/src/ (one per analyzer, with //lintwant expectations, each
// proven to lint clean when its analyzer is disabled), the
// TestLintRepoClean self-check that runs the suite over the real
// module in `go test ./...`, and `make lint` / cmd/provlint in CI.
package lint
