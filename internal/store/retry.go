package store

import (
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// RetryPolicy configures the retry wrapper's jittered exponential
// backoff. The zero value of any field picks its default, so
// RetryPolicy{MaxAttempts: 5} is a complete policy.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per operation, the first
	// included. <= 0 defaults to 4; 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it. <= 0 defaults to 2ms.
	BaseDelay time.Duration
	// MaxDelay caps the per-retry backoff. <= 0 defaults to 250ms.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 2 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	return p
}

// WithRetry wraps a backend so every operation retries transient errors
// (IsTransient) with jittered exponential backoff, up to the policy's
// attempt budget. Permanent errors — not-exist, validation, corruption —
// return immediately, so a 404 never waits out a backoff ladder.
//
// The wrapper leans on the failure-model contract (see the Backend
// docs): a transient error guarantees the failed call had no side
// effect on non-idempotent operations (AppendEventLog, DeleteRun), and
// every other operation is a whole-blob read or overwrite, so replaying
// it is always safe. Retrying therefore never duplicates appended bytes
// and never converts one delete into two.
//
// A retried call that ultimately succeeds is invisible to the caller
// apart from latency; the retry and give-up counts are surfaced through
// Stat() for the serving layer's health endpoint.
func WithRetry(b Backend, p RetryPolicy) Backend {
	return &retryBackend{
		inner:  b,
		pol:    p.withDefaults(),
		jitter: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

type retryBackend struct {
	inner Backend
	pol   RetryPolicy

	// jitter decorrelates this wrapper's backoff ladder from every
	// other process retrying the same fault. An explicitly seeded
	// source instead of math/rand's global one keeps the repo's
	// seeded-randomness invariant (provlint seededrand) uniform; the
	// wall-clock seed is deliberate — backoff spread wants to differ
	// across processes, not replay.
	jitterMu sync.Mutex
	jitter   *rand.Rand // guarded by jitterMu (rand.Rand is not concurrency-safe)

	retries atomic.Int64 // individual retried calls (attempts beyond the first)
	giveups atomic.Int64 // operations that exhausted the attempt budget
}

// do runs op under the retry policy.
func (b *retryBackend) do(op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil || !IsTransient(err) || attempt+1 >= b.pol.MaxAttempts {
			if err != nil && IsTransient(err) {
				b.giveups.Add(1)
			}
			return err
		}
		b.retries.Add(1)
		time.Sleep(b.backoff(attempt))
	}
}

// backoff returns the jittered delay before retry number attempt
// (0-based): BaseDelay doubled per attempt, capped at MaxDelay, then
// scaled by a uniform factor in [0.5, 1.0) so a herd of callers hitting
// the same fault spreads out instead of retrying in lockstep.
func (b *retryBackend) backoff(attempt int) time.Duration {
	d := b.pol.BaseDelay << uint(attempt)
	if d <= 0 || d > b.pol.MaxDelay {
		d = b.pol.MaxDelay
	}
	b.jitterMu.Lock()
	f := b.jitter.Float64()
	b.jitterMu.Unlock()
	return time.Duration((0.5 + f/2) * float64(d))
}

func (b *retryBackend) readBlob(open func() (io.ReadCloser, error)) (io.ReadCloser, error) {
	var rc io.ReadCloser
	err := b.do(func() error {
		var err error
		rc, err = open()
		return err
	})
	return rc, err
}

func (b *retryBackend) ReadSpec() (io.ReadCloser, error) {
	return b.readBlob(b.inner.ReadSpec)
}

func (b *retryBackend) WriteSpec(data []byte) error {
	return b.do(func() error { return b.inner.WriteSpec(data) })
}

func (b *retryBackend) ReadRun(name string) (io.ReadCloser, error) {
	return b.readBlob(func() (io.ReadCloser, error) { return b.inner.ReadRun(name) })
}

func (b *retryBackend) ReadLabels(name string) (io.ReadCloser, error) {
	return b.readBlob(func() (io.ReadCloser, error) { return b.inner.ReadLabels(name) })
}

func (b *retryBackend) WriteRun(name string, runDoc, labels []byte) error {
	return b.do(func() error { return b.inner.WriteRun(name, runDoc, labels) })
}

func (b *retryBackend) DeleteRun(name string) error {
	return b.do(func() error { return b.inner.DeleteRun(name) })
}

func (b *retryBackend) ListRuns() ([]string, error) {
	var names []string
	err := b.do(func() error {
		var err error
		names, err = b.inner.ListRuns()
		return err
	})
	return names, err
}

func (b *retryBackend) AppendEventLog(name string, data []byte) error {
	// Safe to retry by contract: a transient append error means no bytes
	// landed (ambiguous append failures are never marked transient).
	return b.do(func() error { return b.inner.AppendEventLog(name, data) })
}

func (b *retryBackend) ReadEventLog(name string) (io.ReadCloser, error) {
	return b.readBlob(func() (io.ReadCloser, error) { return b.inner.ReadEventLog(name) })
}

func (b *retryBackend) DeleteEventLog(name string) error {
	return b.do(func() error { return b.inner.DeleteEventLog(name) })
}

func (b *retryBackend) ListEventLogs() ([]string, error) {
	var names []string
	err := b.do(func() error {
		var err error
		names, err = b.inner.ListEventLogs()
		return err
	})
	return names, err
}

func (b *retryBackend) ReadMeta(name string) (io.ReadCloser, error) {
	return b.readBlob(func() (io.ReadCloser, error) { return b.inner.ReadMeta(name) })
}

func (b *retryBackend) WriteMeta(name string, data []byte) error {
	return b.do(func() error { return b.inner.WriteMeta(name, data) })
}

func (b *retryBackend) DeleteMeta(name string) error {
	return b.do(func() error { return b.inner.DeleteMeta(name) })
}

func (b *retryBackend) Stat() Stats {
	inner := b.inner.Stat()
	return Stats{
		Kind:    "retry",
		Wrapped: &inner,
		Counters: map[string]int64{
			"retries": b.retries.Load(),
			"giveups": b.giveups.Load(),
		},
	}
}

func (b *retryBackend) Close() error { return b.inner.Close() }
