package server

import (
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// admission is the server's overload-protection layer. Every request
// (except /healthz, which must stay observable under load) passes
// through two gates before reaching a handler:
//
//  1. A per-client token bucket: each client — keyed by the X-Client-ID
//     header when present, else the remote address's host — refills at
//     a configured rate and pays one token per request. An empty bucket
//     is 429 with Retry-After set to when the next token arrives.
//  2. A bounded concurrency gate: at most maxInflight requests execute
//     at once; up to queueDepth more wait for a slot (respecting the
//     client's context, so an abandoned request never occupies a queue
//     position); beyond that the request is 429 with Retry-After.
//
// The gate is what turns a cold-cache stampede or an ingest burst into
// queued-then-shed load instead of unbounded goroutines each holding a
// session load or a labeling in flight: memory stays proportional to
// maxInflight + queueDepth, never to the arrival rate.
type admission struct {
	slots      chan struct{} // buffered; one token per inflight slot
	queueDepth int64

	queued        atomic.Int64
	inflight      atomic.Int64
	peakInflight  atomic.Int64
	admitted      atomic.Int64
	rejectedQueue atomic.Int64
	rejectedRate  atomic.Int64

	rate  float64 // tokens per second per client; <= 0 disables
	burst float64 // bucket capacity

	mu      sync.Mutex
	buckets map[string]*bucket // guarded by mu
	now     func() time.Time   // injectable clock for tests; set once, read-only after

	// release is a.releaseSlot bound once, so admit hands every request
	// the same func value instead of a new closure.
	release func()
}

// bucket is one client's token bucket; guarded by admission.mu (client
// counts are bounded, contention is negligible next to request work).
type bucket struct {
	tokens float64
	last   time.Time
}

// maxClients bounds the bucket map. When full, stale buckets (refilled
// to capacity, so indistinguishable from fresh ones) are swept; if every
// bucket is active the new client is admitted unthrottled this round
// rather than growing the map — bounded memory beats perfect fairness
// during a client-count flood.
const maxClients = 4096

func newAdmission(maxInflight, queueDepth int, rate, burst float64) *admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	if burst <= 0 {
		burst = 2 * rate
	}
	if burst < 1 {
		// A bucket that can never hold one whole token would reject
		// every request forever; one token is the smallest usable burst.
		burst = 1
	}
	a := &admission{
		slots:      make(chan struct{}, maxInflight),
		queueDepth: int64(queueDepth),
		rate:       rate,
		burst:      burst,
		buckets:    make(map[string]*bucket),
		now:        time.Now,
	}
	a.release = a.releaseSlot
	return a
}

// admit applies both gates. On success it returns a release function the
// caller must invoke when the request finishes. On overload it writes
// the 429 (with Retry-After) itself and returns ok=false. Without rate
// limiting the client is never identified and admission allocates
// nothing.
func (a *admission) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	var client string
	if a.rate > 0 {
		client = clientKey(r)
	}
	if retry, limited := a.takeToken(client); limited {
		a.rejectedRate.Add(1)
		writeRetryAfter(w, retry)
		writeErr(w, http.StatusTooManyRequests,
			"rate limit exceeded for this client; retry in %s", retry)
		return nil, false
	}
	select {
	case a.slots <- struct{}{}:
	default:
		// No free slot: join the bounded queue or shed. A shed (or
		// abandoned) request did no work, so its rate-limit token is
		// refunded — otherwise a client obeying Retry-After after a
		// capacity 429 would eat a second, rate 429 for a request that
		// never executed.
		if q := a.queued.Add(1); q > a.queueDepth {
			a.queued.Add(-1)
			a.rejectedQueue.Add(1)
			a.refundToken(client)
			retry := time.Second
			writeRetryAfter(w, retry)
			writeErr(w, http.StatusTooManyRequests,
				"server is at capacity (%d in flight, %d queued); retry in %s",
				cap(a.slots), a.queueDepth, retry)
			return nil, false
		}
		select {
		case a.slots <- struct{}{}:
			a.queued.Add(-1)
		case <-r.Context().Done():
			// The client gave up while queued; nothing useful to write.
			a.queued.Add(-1)
			a.refundToken(client)
			return nil, false
		}
	}
	a.admitted.Add(1)
	in := a.inflight.Add(1)
	for {
		peak := a.peakInflight.Load()
		if in <= peak || a.peakInflight.CompareAndSwap(peak, in) {
			break
		}
	}
	return a.release, true
}

// releaseSlot frees an admitted request's slot.
func (a *admission) releaseSlot() {
	a.inflight.Add(-1)
	<-a.slots
}

// takeToken charges one token to the client's bucket, reporting how long
// the client should wait when the bucket is empty.
func (a *admission) takeToken(client string) (retryAfter time.Duration, limited bool) {
	if a.rate <= 0 {
		return 0, false
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.now()
	b, ok := a.buckets[client]
	if !ok {
		if len(a.buckets) >= maxClients {
			a.sweepLocked(now)
		}
		if len(a.buckets) >= maxClients {
			return 0, false // map full of active clients; see maxClients
		}
		b = &bucket{tokens: a.burst, last: now}
		a.buckets[client] = b
	}
	b.tokens = math.Min(a.burst, b.tokens+now.Sub(b.last).Seconds()*a.rate)
	b.last = now
	if b.tokens < 1 {
		return time.Duration((1 - b.tokens) / a.rate * float64(time.Second)), true
	}
	b.tokens--
	return 0, false
}

// refundToken returns the token charged to a request that was shed or
// abandoned before doing any work.
func (a *admission) refundToken(client string) {
	if a.rate <= 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if b, ok := a.buckets[client]; ok {
		b.tokens = math.Min(a.burst, b.tokens+1)
	}
}

// sweepLocked drops buckets that have refilled to capacity: a client
// whose bucket is full has been idle long enough that forgetting it
// changes nothing. The caller holds a.mu.
func (a *admission) sweepLocked(now time.Time) {
	for client, b := range a.buckets {
		if math.Min(a.burst, b.tokens+now.Sub(b.last).Seconds()*a.rate) >= a.burst {
			delete(a.buckets, client)
		}
	}
}

// clientKey identifies the requesting client for rate limiting: an
// explicit X-Client-ID when the caller sends one (load balancers and
// SDKs), else the connection's remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeRetryAfter sets Retry-After in whole seconds, rounded up so the
// client never retries before the server is ready.
func writeRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// AdmissionStats is a snapshot of the admission layer's counters,
// reported under "admission" in /healthz.
type AdmissionStats struct {
	// MaxInflight and QueueDepth echo the configured bounds.
	MaxInflight int `json:"max_inflight"`
	QueueDepth  int `json:"queue_depth"`
	// Inflight and Queued are the current gauges; PeakInflight is the
	// high-water mark (never exceeds MaxInflight).
	Inflight     int64 `json:"inflight"`
	Queued       int64 `json:"queued"`
	PeakInflight int64 `json:"peak_inflight"`
	// Admitted counts requests that passed both gates; RejectedQueue and
	// RejectedRate count 429s from the full queue and empty buckets.
	Admitted      int64 `json:"admitted"`
	RejectedQueue int64 `json:"rejected_queue"`
	RejectedRate  int64 `json:"rejected_rate"`
	// RateLimitedClients is the resident token-bucket count.
	RateLimitedClients int `json:"rate_limited_clients,omitempty"`
}

func (a *admission) Stats() AdmissionStats {
	a.mu.Lock()
	clients := len(a.buckets)
	a.mu.Unlock()
	return AdmissionStats{
		MaxInflight:        cap(a.slots),
		QueueDepth:         int(a.queueDepth),
		Inflight:           a.inflight.Load(),
		Queued:             a.queued.Load(),
		PeakInflight:       a.peakInflight.Load(),
		Admitted:           a.admitted.Load(),
		RejectedQueue:      a.rejectedQueue.Load(),
		RejectedRate:       a.rejectedRate.Load(),
		RateLimitedClients: clients,
	}
}
