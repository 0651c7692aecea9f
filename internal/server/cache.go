package server

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// sessionCache is an LRU cache of opened store sessions with
// singleflight-style load deduplication: when N requests arrive
// concurrently for a run that is not cached, exactly one performs the
// disk load while the others block on the in-flight entry and share its
// result. Cache hits never touch disk — the session (labels, the
// run.Namer built in two counting passes over their origin column, which
// it shares, keeping only ranks and per-origin lists of its own and
// rendering names on demand, and the run document: held bytes until a
// path query or run status decodes them once) lives entirely in memory.
type sessionCache struct {
	loadFn func(name string) (*session, error)

	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // guarded by mu; run name -> element holding *cacheEntry
	order   *list.List               // guarded by mu; front = most recently used

	// gens, guarded by mu, fences in-flight loads against invalidation: every Invalidate
	// or Put bumps the generation for the name (striped by hash — a
	// collision only costs a spurious re-load, never staleness), and a
	// load that started under an older generation must not land in the
	// cache when it completes. Entry registration before the load plus
	// Invalidate's detach already make resurrection impossible today;
	// the generation check turns that emergent property into a checked
	// invariant (counted in Stats().Fenced), so the write path's
	// delete/overwrite coherence no longer depends on the exact order of
	// map surgery in this file.
	gens [256]uint64

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	fenced        atomic.Int64
}

// cacheEntry is one cached (or in-flight) session load. ready is closed
// once sess/err are set; waiters block on it without holding the cache
// lock, so a slow disk load never serializes hits on other runs.
type cacheEntry struct {
	name  string
	gen   uint64 // generation observed when the load was registered
	ready chan struct{}
	sess  *session
	err   error
}

// genIndex stripes names over the generation table with the package's
// shared FNV-1a (see fnv32a in ingest.go).
func genIndex(name string) int {
	return int(fnv32a(name) % 256)
}

func newSessionCache(max int, load func(string) (*session, error)) *sessionCache {
	if max < 1 {
		max = 1
	}
	return &sessionCache{
		loadFn:  load,
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// Get returns the session for the named run, loading it at most once no
// matter how many goroutines ask concurrently. Failed loads are not
// cached: the next Get retries the disk.
func (c *sessionCache) Get(name string) (*session, error) {
	c.mu.Lock()
	if el, ok := c.entries[name]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		c.hits.Add(1)
		<-e.ready
		return e.sess, e.err
	}
	c.misses.Add(1)
	e := &cacheEntry{name: name, gen: c.gens[genIndex(name)], ready: make(chan struct{})}
	el := c.order.PushFront(e)
	c.entries[name] = el
	c.mu.Unlock()

	sess, err := c.loadFn(name)
	e.sess, e.err = sess, err
	close(e.ready)

	// Eviction runs only after the load resolves: a failed load (e.g. a
	// request for a run that doesn't exist) removes itself and never
	// evicts a live session, so bogus run names can't thrash the cache.
	// The cache may transiently exceed max by the number of in-flight
	// loads; max >= 1 keeps a just-loaded entry at the front safe.
	c.mu.Lock()
	switch {
	case c.gens[genIndex(name)] != e.gen:
		// The name was invalidated (or replaced by Put) while this load
		// was in flight: whatever it read predates that write or delete
		// and must not stay cached. Waiters still get this result — their
		// requests overlapped the invalidating operation — but the entry
		// is dropped so the next Get reloads current state.
		if cur, ok := c.entries[name]; ok && cur == el {
			c.order.Remove(el)
			delete(c.entries, name)
		}
		c.fenced.Add(1)
	case err != nil:
		// Drop the failed entry unless it was already evicted or replaced.
		if cur, ok := c.entries[name]; ok && cur == el {
			c.order.Remove(el)
			delete(c.entries, name)
		}
	default:
		c.evictOverCapacityLocked()
	}
	c.mu.Unlock()
	return sess, err
}

// Peek returns the cached session for name without ever loading: a
// miss is just (nil, false). It is degraded mode's read path — while
// the circuit breaker is open, resident sessions (immutable, fully in
// memory) keep answering queries and misses are shed instead of sent to
// a backend known to be failing. A hit still refreshes LRU position and
// counts as a hit; an entry still loading is waited on like Get (its
// load began before the breaker opened), and a failed load reports a
// miss.
func (c *sessionCache) Peek(name string) (*session, bool) {
	c.mu.Lock()
	el, ok := c.entries[name]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	c.mu.Unlock()
	c.hits.Add(1)
	<-e.ready
	if e.err != nil || e.sess == nil {
		return nil, false
	}
	return e.sess, true
}

// evictOverCapacityLocked drops least-recently-used entries until the
// cache is back within max; the caller holds c.mu.
func (c *sessionCache) evictOverCapacityLocked() {
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).name)
		c.evictions.Add(1)
	}
}

// Invalidate drops the named entry so the next Get reloads from the
// backend, and bumps the name's generation so a load already in flight
// cannot land its (stale) result in the cache when it completes. It is
// the write path's cache-coherence hook: after an ingest overwrites a
// stored run — or a delete removes it — the stale session must not keep
// answering. An in-flight load for the name is detached and fenced
// rather than interrupted — its waiters still receive the session they
// asked for (their requests overlapped the write), but the result is
// never cached. Reports whether an entry was dropped.
func (c *sessionCache) Invalidate(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[genIndex(name)]++
	el, ok := c.entries[name]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.entries, name)
	c.invalidations.Add(1)
	return true
}

// Put installs an already-resolved session at the front of the LRU,
// replacing any entry (cached or in-flight) for the name. It is the
// ingest path's refresh: the session was just built from the labeling
// in hand, so going back to the backend for it would be pure waste.
// Like Invalidate, it bumps the generation: a load that was in flight
// across the Put is older than the session just installed and must not
// replace it.
func (c *sessionCache) Put(name string, sess *session) {
	e := &cacheEntry{name: name, ready: make(chan struct{}), sess: sess}
	close(e.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens[genIndex(name)]++
	e.gen = c.gens[genIndex(name)]
	if el, ok := c.entries[name]; ok {
		c.order.Remove(el)
	}
	c.entries[name] = c.order.PushFront(e)
	c.evictOverCapacityLocked()
}

// Names returns the cached run names, most recently used first.
// In-flight loads count: a session being loaded right now is by
// definition hot. EnforceMaxRuns deletes cached runs in the reverse of
// this order.
func (c *sessionCache) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, c.order.Len())
	for el := c.order.Front(); el != nil; el = el.Next() {
		names = append(names, el.Value.(*cacheEntry).name)
	}
	return names
}

// Len returns the number of cached (or in-flight) sessions.
func (c *sessionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// CacheStats is a snapshot of the session cache's counters.
type CacheStats struct {
	Cached        int   `json:"cached"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	// Fenced counts loads whose result was discarded because the name
	// was invalidated (overwritten or deleted) while the load was in
	// flight — each one is a stale session the generation fence kept out
	// of the cache.
	Fenced int64 `json:"fenced"`
}

func (c *sessionCache) Stats() CacheStats {
	return CacheStats{
		Cached:        c.Len(),
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Fenced:        c.fenced.Load(),
	}
}
