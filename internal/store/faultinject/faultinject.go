// Package faultinject wraps a store.Backend with a programmable fault
// plan, so the layers above can be tested against the storage failures
// that are hard to produce on demand: transient I/O errors, slow disks,
// torn event-log tails, and runs whose label write landed but whose
// document write did not.
//
// The wrapper composes around any backend — fs, mem, or the
// retry wrapper itself — either in-process via Wrap, or from a store
// URL through OpenURL:
//
//	fault://rate=0.05,seed=7/mem://dir
//	fault://torn=0.1,latency=2ms/fs:///var/prov
//	fault://reads=0.2,writes=0.05,seed=1/dir
//
// Everything between "fault://" and the first "/" is a comma-separated
// option list (see ParsePlan); the remainder is the inner store URL,
// opened through store.OpenBackendURL.
//
// Injected faults obey the store failure-model contract, which is what
// makes the injector a valid stand-in for a real flaky disk rather
// than an arbitrary error generator:
//
//   - Plain injected errors are transient (store.IsTransient) and fire
//     before the inner call, so a failed non-idempotent operation
//     (AppendEventLog, DeleteRun) had no side effect and is safe to
//     retry.
//   - A torn append really does write a prefix of the batch to the
//     inner backend and returns ErrTorn, which is NOT transient: the
//     bytes are on disk, so a blind retry would duplicate events. The
//     live layer's broken-session → Recover path owns this case.
//   - A partial WriteRun overwrites the labels while keeping the old
//     document (the labels-before-XML write order interrupted between
//     the two steps) and returns a transient error: the operation is a
//     whole-pair overwrite, so a retry heals it.
//
// All randomness comes from one seeded source, so a failing chaos run
// reproduces from its seed.
package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
)

// ErrInjected is the base of every plain injected error. Callers see it
// wrapped by store.ErrTransient, so store.IsTransient reports true.
var ErrInjected = errors.New("faultinject: injected fault")

// ErrTorn is returned by a torn AppendEventLog. A prefix of the batch
// WAS written, so the error is deliberately not transient: retrying the
// append verbatim would duplicate the prefix. Recovery belongs to the
// event-log reader, which tolerates torn tails.
var ErrTorn = errors.New("faultinject: torn append (prefix written)")

// Op names one Backend operation for per-op rules and counters.
type Op string

// The injectable operations — one per Backend method except Stat and
// Close, which never fail.
const (
	OpReadSpec       Op = "ReadSpec"
	OpWriteSpec      Op = "WriteSpec"
	OpReadRun        Op = "ReadRun"
	OpReadLabels     Op = "ReadLabels"
	OpWriteRun       Op = "WriteRun"
	OpDeleteRun      Op = "DeleteRun"
	OpListRuns       Op = "ListRuns"
	OpAppendEventLog Op = "AppendEventLog"
	OpReadEventLog   Op = "ReadEventLog"
	OpDeleteEventLog Op = "DeleteEventLog"
	OpListEventLogs  Op = "ListEventLogs"
	OpReadMeta       Op = "ReadMeta"
	OpWriteMeta      Op = "WriteMeta"
	OpDeleteMeta     Op = "DeleteMeta"
)

// ReadOps lists the operations that only observe the store; WriteOps
// the ones that mutate it. ParsePlan's reads=/writes= keys target these
// two sets.
var (
	ReadOps  = []Op{OpReadSpec, OpReadRun, OpReadLabels, OpListRuns, OpReadEventLog, OpListEventLogs, OpReadMeta}
	WriteOps = []Op{OpWriteSpec, OpWriteRun, OpDeleteRun, OpAppendEventLog, OpDeleteEventLog, OpWriteMeta, OpDeleteMeta}
)

// Rule says how one operation (or the default for all of them)
// misbehaves. The zero Rule injects nothing.
type Rule struct {
	// ErrRate is the probability in [0,1] that a call fails with a
	// transient injected error before reaching the inner backend.
	ErrRate float64
	// TornRate (AppendEventLog only) is the probability that a call
	// writes a strict prefix of the batch and returns ErrTorn.
	TornRate float64
	// PartialRate (WriteRun only) is the probability that a call
	// overwrites the labels, keeps the old document, and returns a
	// transient error — the labels-before-XML order interrupted.
	PartialRate float64
	// FailFirst fails the first N calls of the operation with a
	// transient error, then lets calls through to the probabilistic
	// rates. Deterministic, for scripting "down then back" scenarios.
	FailFirst int
	// Latency is added to every call of the operation, fault or not.
	Latency time.Duration
}

// Plan is a complete fault configuration: a default rule, per-op
// overrides (an op present in PerOp uses that rule INSTEAD of Default,
// zero fields included), and the seed feeding all randomness.
type Plan struct {
	Seed    int64
	Default Rule
	PerOp   map[Op]Rule
}

func (p Plan) rule(op Op) Rule {
	if r, ok := p.PerOp[op]; ok {
		return r
	}
	return p.Default
}

// Backend is the fault-injecting wrapper. Besides store.Backend it
// exposes SetPlan for runtime control (a chaos test turns faults on,
// tortures the system, turns them off, then differentially verifies)
// and Injected for per-op fault counts.
type Backend struct {
	inner store.Backend

	mu       sync.Mutex
	plan     Plan         // guarded by mu
	rng      *rand.Rand   // guarded by mu; reseeded by SetPlan for reproducible fault sequences
	calls    map[Op]int   // guarded by mu; calls since the last SetPlan, drives FailFirst
	injected map[Op]int64 // guarded by mu; injected faults per op, survives SetPlan
}

// Wrap returns inner behind a fault injector following plan.
func Wrap(inner store.Backend, plan Plan) *Backend {
	b := &Backend{inner: inner, injected: make(map[Op]int64)}
	b.SetPlan(plan)
	return b
}

// SetPlan replaces the fault plan atomically: the random source is
// re-seeded from plan.Seed and FailFirst scripts restart, so the same
// plan on the same call sequence reproduces the same faults. Fault
// counters are cumulative across plans. SetPlan(Plan{}) turns all
// faults off.
func (b *Backend) SetPlan(plan Plan) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.plan = plan
	b.rng = rand.New(rand.NewSource(plan.Seed))
	b.calls = make(map[Op]int)
}

// Injected returns a snapshot of the per-op injected-fault counts.
func (b *Backend) Injected() map[Op]int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[Op]int64, len(b.injected))
	for op, n := range b.injected {
		out[op] = n
	}
	return out
}

// faultKind is what decide picked for one call.
type faultKind int

const (
	faultNone    faultKind = iota
	faultErr               // transient error, inner not called
	faultTorn              // AppendEventLog: prefix written, ErrTorn
	faultPartial           // WriteRun: labels land, document does not
)

// decide rolls the dice for one call: the latency to add and the fault
// to inject, plus the prefix fraction for a torn append. All state
// (rule lookup, FailFirst counting, the shared rng) lives under the
// mutex; the sleep itself happens in the caller, outside it.
func (b *Backend) decide(op Op) (faultKind, float64, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r := b.plan.rule(op)
	n := b.calls[op]
	b.calls[op] = n + 1
	kind := faultNone
	frac := 0.0
	switch {
	case n < r.FailFirst:
		kind = faultErr
	case op == OpAppendEventLog && r.TornRate > 0 && b.rng.Float64() < r.TornRate:
		kind, frac = faultTorn, b.rng.Float64()
	case op == OpWriteRun && r.PartialRate > 0 && b.rng.Float64() < r.PartialRate:
		kind = faultPartial
	case r.ErrRate > 0 && b.rng.Float64() < r.ErrRate:
		kind = faultErr
	}
	if kind != faultNone {
		b.injected[op]++
	}
	return kind, frac, r.Latency
}

// injectErr is the transient error a faultErr decision surfaces.
func injectErr(op Op) error {
	return store.Transient(fmt.Errorf("%w: %s", ErrInjected, op))
}

// enter applies latency and the plain-error fault for ops that have no
// specialized fault mode. It returns a non-nil error when the call must
// fail without reaching the inner backend.
func (b *Backend) enter(op Op) error {
	kind, _, latency := b.decide(op)
	if latency > 0 {
		time.Sleep(latency)
	}
	if kind != faultNone {
		return injectErr(op)
	}
	return nil
}

func (b *Backend) readBlob(op Op, open func() (io.ReadCloser, error)) (io.ReadCloser, error) {
	if err := b.enter(op); err != nil {
		return nil, err
	}
	return open()
}

func (b *Backend) ReadSpec() (io.ReadCloser, error) {
	return b.readBlob(OpReadSpec, b.inner.ReadSpec)
}

func (b *Backend) WriteSpec(data []byte) error {
	if err := b.enter(OpWriteSpec); err != nil {
		return err
	}
	return b.inner.WriteSpec(data)
}

func (b *Backend) ReadRun(name string) (io.ReadCloser, error) {
	return b.readBlob(OpReadRun, func() (io.ReadCloser, error) { return b.inner.ReadRun(name) })
}

func (b *Backend) ReadLabels(name string) (io.ReadCloser, error) {
	return b.readBlob(OpReadLabels, func() (io.ReadCloser, error) { return b.inner.ReadLabels(name) })
}

// WriteRun injects either a plain transient error (nothing written) or
// a partial write: the new labels land next to the OLD document — the
// observable state of the labels-before-XML write order dying between
// its two steps — and a transient error reports the operation failed.
// For a run that does not exist yet there is no old document to keep,
// so the partial degrades to a plain error; either way a retry's full
// overwrite heals the run.
func (b *Backend) WriteRun(name string, runDoc, labels []byte) error {
	kind, _, latency := b.decide(OpWriteRun)
	if latency > 0 {
		time.Sleep(latency)
	}
	switch kind {
	case faultNone:
		return b.inner.WriteRun(name, runDoc, labels)
	case faultPartial:
		if old, err := readAll(b.inner.ReadRun(name)); err == nil {
			if werr := b.inner.WriteRun(name, old, labels); werr != nil {
				return werr
			}
		}
		return store.Transient(fmt.Errorf("%w: WriteRun partial (labels written, document lost)", ErrInjected))
	default:
		return injectErr(OpWriteRun)
	}
}

func (b *Backend) DeleteRun(name string) error {
	if err := b.enter(OpDeleteRun); err != nil {
		return err
	}
	return b.inner.DeleteRun(name)
}

func (b *Backend) ListRuns() ([]string, error) {
	if err := b.enter(OpListRuns); err != nil {
		return nil, err
	}
	return b.inner.ListRuns()
}

// AppendEventLog injects either a plain transient error (no bytes
// written — safe to retry) or a torn append: a strict prefix of the
// batch reaches the inner backend and ErrTorn comes back. Torn is not
// transient by design; the caller must re-read the log to learn what
// landed, exactly as after a real crash mid-append.
func (b *Backend) AppendEventLog(name string, data []byte) error {
	kind, frac, latency := b.decide(OpAppendEventLog)
	if latency > 0 {
		time.Sleep(latency)
	}
	switch kind {
	case faultNone:
		return b.inner.AppendEventLog(name, data)
	case faultTorn:
		cut := int(frac * float64(len(data)))
		if cut >= len(data) && len(data) > 0 {
			cut = len(data) - 1
		}
		if cut > 0 {
			if err := b.inner.AppendEventLog(name, data[:cut]); err != nil {
				return err
			}
		}
		return fmt.Errorf("%w: %d of %d bytes", ErrTorn, cut, len(data))
	default:
		return injectErr(OpAppendEventLog)
	}
}

func (b *Backend) ReadEventLog(name string) (io.ReadCloser, error) {
	return b.readBlob(OpReadEventLog, func() (io.ReadCloser, error) { return b.inner.ReadEventLog(name) })
}

func (b *Backend) DeleteEventLog(name string) error {
	if err := b.enter(OpDeleteEventLog); err != nil {
		return err
	}
	return b.inner.DeleteEventLog(name)
}

func (b *Backend) ListEventLogs() ([]string, error) {
	if err := b.enter(OpListEventLogs); err != nil {
		return nil, err
	}
	return b.inner.ListEventLogs()
}

func (b *Backend) ReadMeta(name string) (io.ReadCloser, error) {
	return b.readBlob(OpReadMeta, func() (io.ReadCloser, error) { return b.inner.ReadMeta(name) })
}

func (b *Backend) WriteMeta(name string, data []byte) error {
	if err := b.enter(OpWriteMeta); err != nil {
		return err
	}
	return b.inner.WriteMeta(name, data)
}

func (b *Backend) DeleteMeta(name string) error {
	if err := b.enter(OpDeleteMeta); err != nil {
		return err
	}
	return b.inner.DeleteMeta(name)
}

func (b *Backend) Stat() store.Stats {
	inner := b.inner.Stat()
	b.mu.Lock()
	counters := make(map[string]int64, len(b.injected)+1)
	var total int64
	for op, n := range b.injected {
		counters["injected_"+string(op)] = n
		total += n
	}
	counters["injected_total"] = total
	b.mu.Unlock()
	return store.Stats{Kind: "fault", Wrapped: &inner, Counters: counters}
}

func (b *Backend) Close() error { return b.inner.Close() }

func readAll(rc io.ReadCloser, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// ParsePlan parses the option segment of a fault:// URL: comma-
// separated key=value pairs, all optional.
//
//	rate=0.05       default transient-error rate for every op
//	reads=0.1       transient-error rate for read ops (overrides rate)
//	writes=0.02     transient-error rate for write ops (overrides rate)
//	torn=0.1        torn-tail rate for AppendEventLog
//	partial=0.1     partial-write rate for WriteRun
//	failfirst=3     every op fails its first 3 calls, then recovers
//	latency=2ms     added to every call (Go duration syntax)
//	seed=7          random seed (default 1)
//
// An empty string is a valid no-fault plan.
func ParsePlan(opts string) (Plan, error) {
	plan := Plan{Seed: 1}
	if opts == "" {
		return plan, nil
	}
	var reads, writes, torn, partial float64
	var haveReads, haveWrites bool
	for _, kv := range strings.Split(opts, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return Plan{}, fmt.Errorf("faultinject: option %q is not key=value", kv)
		}
		var err error
		switch key {
		case "rate":
			plan.Default.ErrRate, err = parseRate(val)
		case "reads":
			reads, err = parseRate(val)
			haveReads = true
		case "writes":
			writes, err = parseRate(val)
			haveWrites = true
		case "torn":
			torn, err = parseRate(val)
		case "partial":
			partial, err = parseRate(val)
		case "failfirst":
			plan.Default.FailFirst, err = strconv.Atoi(val)
			if err == nil && plan.Default.FailFirst < 0 {
				err = fmt.Errorf("negative")
			}
		case "latency":
			plan.Default.Latency, err = time.ParseDuration(val)
		case "seed":
			plan.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return Plan{}, fmt.Errorf("faultinject: unknown option %q", key)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("faultinject: option %s=%q: %w", key, val, err)
		}
	}
	override := func(ops []Op, rate float64) {
		if plan.PerOp == nil {
			plan.PerOp = make(map[Op]Rule)
		}
		for _, op := range ops {
			r := plan.Default
			r.ErrRate = rate
			plan.PerOp[op] = r
		}
	}
	if haveReads {
		override(ReadOps, reads)
	}
	if haveWrites {
		override(WriteOps, writes)
	}
	if torn > 0 {
		r := plan.rule(OpAppendEventLog)
		r.TornRate = torn
		if plan.PerOp == nil {
			plan.PerOp = make(map[Op]Rule)
		}
		plan.PerOp[OpAppendEventLog] = r
	}
	if partial > 0 {
		r := plan.rule(OpWriteRun)
		r.PartialRate = partial
		if plan.PerOp == nil {
			plan.PerOp = make(map[Op]Rule)
		}
		plan.PerOp[OpWriteRun] = r
	}
	return plan, nil
}

func parseRate(val string) (float64, error) {
	f, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, err
	}
	if f < 0 || f > 1 {
		return 0, fmt.Errorf("rate outside [0,1]")
	}
	return f, nil
}

// OpenURL opens the store a URL names, as store.OpenURL does, and also
// fault://<opts>/<inner-url>: everything up to the first "/" is the
// ParsePlan option list, and the rest is the inner store URL, opened
// through store.OpenBackendURL and wrapped with that plan armed.
func OpenURL(rawurl string) (*store.Store, error) {
	rest, ok := strings.CutPrefix(rawurl, "fault://")
	if !ok {
		return store.OpenURL(rawurl)
	}
	opts, innerURL, ok := strings.Cut(rest, "/")
	if !ok || innerURL == "" {
		return nil, fmt.Errorf("faultinject: fault:// needs an inner store URL: fault://<opts>/<url>")
	}
	plan, err := ParsePlan(opts)
	if err != nil {
		return nil, err
	}
	inner, err := store.OpenBackendURL(innerURL)
	if err != nil {
		return nil, err
	}
	b := Wrap(inner, plan)
	st, err := store.OpenBackend(b)
	if err != nil {
		b.Close()
		return nil, err
	}
	return st, nil
}
