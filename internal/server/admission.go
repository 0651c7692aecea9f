package server

import (
	"net/http"
	"sync/atomic"
)

// admission is the server's overload-protection layer. Every request
// (except /healthz, which must stay observable under load) passes
// through one bounded concurrency gate before reaching a handler: at
// most maxInflight requests execute at once; up to queueDepth more wait
// for a slot (respecting the client's context, so an abandoned request
// never occupies a queue position); beyond that the request is 429 with
// Retry-After.
//
// The gate is what turns a cold-cache stampede or an ingest burst into
// queued-then-shed load instead of unbounded goroutines each holding a
// session load or a labeling in flight: memory stays proportional to
// maxInflight + queueDepth, never to the arrival rate or the number of
// clients. Limiting one peer's share is the reverse proxy's job: it
// sees the real peer address, not a header the client picks.
type admission struct {
	slots      chan struct{} // buffered; one token per inflight slot
	queueDepth int64

	queued        atomic.Int64
	inflight      atomic.Int64
	peakInflight  atomic.Int64
	admitted      atomic.Int64
	rejectedQueue atomic.Int64

	// release is a.releaseSlot bound once, so admit hands every request
	// the same func value instead of a new closure.
	release func()
}

func newAdmission(maxInflight, queueDepth int) *admission {
	if maxInflight < 1 {
		maxInflight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	a := &admission{
		slots:      make(chan struct{}, maxInflight),
		queueDepth: int64(queueDepth),
	}
	a.release = a.releaseSlot
	return a
}

// admit applies the gate. On success it returns a release function the
// caller must invoke when the request finishes. On overload it writes
// the 429 (with Retry-After) itself and returns ok=false. Admitting a
// request allocates nothing.
func (a *admission) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	select {
	case a.slots <- struct{}{}:
	default:
		// No free slot: join the bounded queue or shed.
		if q := a.queued.Add(1); q > a.queueDepth {
			a.queued.Add(-1)
			a.rejectedQueue.Add(1)
			w.Header().Set("Retry-After", "1")
			writeErr(w, http.StatusTooManyRequests,
				"server is at capacity (%d in flight, %d queued); retry in 1s",
				cap(a.slots), a.queueDepth)
			return nil, false
		}
		select {
		case a.slots <- struct{}{}:
			a.queued.Add(-1)
		case <-r.Context().Done():
			// The client gave up while queued; nothing useful to write.
			a.queued.Add(-1)
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
	// Admitted counts requests that passed the gate; RejectedQueue
	// counts 429s from the full queue.
	Admitted      int64 `json:"admitted"`
	RejectedQueue int64 `json:"rejected_queue"`
}

func (a *admission) Stats() AdmissionStats {
	return AdmissionStats{
		MaxInflight:   cap(a.slots),
		QueueDepth:    int(a.queueDepth),
		Inflight:      a.inflight.Load(),
		Queued:        a.queued.Load(),
		PeakInflight:  a.peakInflight.Load(),
		Admitted:      a.admitted.Load(),
		RejectedQueue: a.rejectedQueue.Load(),
	}
}
