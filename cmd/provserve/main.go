// Command provserve serves provenance queries over a stored provenance
// database as a concurrent HTTP/JSON API, optionally accepting new runs
// over the same connection (the write path).
//
// The -store flag takes a URL picking the storage backend (a bare
// directory path means fs://):
//
//	provserve -store ./provstore                  one directory
//	provserve -store fs:///var/prov               same, explicit
//	provserve -store 'mem://./provstore'          preload into RAM, serve
//	                                              with zero disk I/O
//	provserve -store ./provstore -addr :9090 -scheme BFS -cache 64
//	provserve -store ./provstore -ingest          accept PUT/DELETE /runs
//	provserve -store ./provstore -ingest -max-runs 1000
//	                                              retention: keep at most
//	                                              1000 runs, evicting
//	                                              least-recently-used
//	provserve -store ./provstore -stream          accept streaming ingest:
//	                                              POST /runs/{name}/events
//	                                              appends engine events to
//	                                              a live run, /finish seals
//	                                              it; a restart replays the
//	                                              event log
//
// Fault tolerance (see the failure model on the store backend and
// internal/server's breaker):
//
//	provserve -store ./provstore -retry 4         retry transient backend
//	                                              errors with jittered
//	                                              exponential backoff
//	provserve -store ./provstore -breaker-threshold 5
//	                                              after 5 consecutive
//	                                              transient failures flip
//	                                              into degraded read-only
//	                                              mode: cache-hit reads
//	                                              serve, everything else
//	                                              503 + Retry-After until
//	                                              a backend probe heals
//	provserve -store ./provstore -stream -stream-ttl 1h
//	                                              expire live streams idle
//	                                              past the TTL (session,
//	                                              event log, checkpoint)
//	provserve -store 'fault://rate=0.05,seed=1/mem://./provstore'
//	                                              chaos-test: 5%% injected
//	                                              transient faults on every
//	                                              backend op
//
// Endpoints (see internal/server):
//
//	curl localhost:8080/healthz
//	curl localhost:8080/specs
//	curl localhost:8080/runs
//	curl -X PUT --data-binary @run.xml localhost:8080/runs/r2
//	curl -X DELETE localhost:8080/runs/r2
//	curl localhost:8080/runs/r3
//	curl -X POST --data-binary @batch.events 'localhost:8080/runs/r3/events?offset=0'
//	curl -X POST localhost:8080/runs/r3/finish
//	curl 'localhost:8080/reachable?run=r1&from=b1&to=c3'
//	curl -d '{"run":"r1","pairs":[["b1","c3"],[12,34]]}' localhost:8080/batch
//	curl 'localhost:8080/lineage?run=r1&vertex=h1&dir=up'
//
// /batch pair elements may be occurrence names or vertex IDs, as JSON
// strings or bare integers; large batches fan out across all CPUs.
//
// Admission control: at most -max-inflight requests execute at once
// with up to -queue-depth more waiting; beyond that the server answers
// 429 with Retry-After instead of building unbounded backlog. /healthz
// bypasses admission so monitoring works under load. A per-peer request
// rate belongs in the reverse proxy in front, which sees the real peer
// address.
//
// A started server does nothing a first request would not do itself: a
// stored run loads into the session cache on its first query, and an
// interrupted stream is replayed from its event log on its first
// append, finish or query.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		storeURL    = flag.String("store", "", "store URL: fs://dir (or a bare path), mem://dir (required)")
		scheme      = flag.String("scheme", "TCM", "skeleton scheme for loaded sessions (TCM, BFS, DFS, Interval, Chain, 2-Hop, Dual)")
		cache       = flag.Int("cache", 16, "maximum cached run sessions (LRU)")
		maxBatch    = flag.Int("max-batch", 8192, "maximum pairs per /batch request")
		ingest      = flag.Bool("ingest", false, "accept PUT /runs/{name} run documents and DELETE /runs/{name} (the write path)")
		stream      = flag.Bool("stream", false, "accept streaming ingest: POST /runs/{name}/events and /finish (see internal/server)")
		maxIngest   = flag.Int64("max-ingest-bytes", 16<<20, "maximum ingest request body size")
		maxRuns     = flag.Int("max-runs", 0, "retention bound: after each PUT or /finish, delete least-recently-used runs beyond this count (0 = unlimited; needs -ingest or -stream)")
		maxInflight = flag.Int("max-inflight", 64, "maximum concurrently executing requests")
		queueDepth  = flag.Int("queue-depth", 0, "requests allowed to wait for a slot before 429 (0 = 2*max-inflight)")
		retry       = flag.Int("retry", 0, "retry transient backend errors up to this many attempts with jittered backoff (0 disables)")
		brkThresh   = flag.Int("breaker-threshold", 0, "consecutive transient backend failures before degraded read-only mode (0 = default 5, negative disables)")
		brkCooldown = flag.Duration("breaker-cooldown", 0, "backend probe interval (and Retry-After) while degraded (0 = default 500ms)")
		streamTTL   = flag.Duration("stream-ttl", 0, "expire live streams idle past this duration, dropping their durable state (0 = never; needs -stream)")
	)
	flag.Parse()
	if *storeURL == "" {
		fmt.Fprintln(os.Stderr, "provserve: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	st, err := repro.OpenStoreURL(*storeURL)
	if err != nil {
		log.Fatalf("provserve: %v", err)
	}
	if *retry > 0 {
		// Re-open the store over the retry-wrapped backend so every
		// backend trip (loads, ingests, appends, deletes) absorbs
		// transient faults before the server's breaker ever sees them.
		st, err = repro.OpenStoreOverBackend(
			repro.WithRetryBackend(st.Backend(), repro.StoreRetryPolicy{MaxAttempts: *retry}))
		if err != nil {
			log.Fatalf("provserve: reopening store with retry: %v", err)
		}
	}
	sch, err := repro.SpecSchemeByName(*scheme)
	if err != nil {
		log.Fatalf("provserve: %v", err)
	}
	srv, err := repro.NewServer(repro.ServerConfig{
		Store:            st,
		Scheme:           sch,
		CacheSize:        *cache,
		MaxBatch:         *maxBatch,
		EnableIngest:     *ingest,
		EnableStream:     *stream,
		MaxIngestBytes:   *maxIngest,
		MaxRuns:          *maxRuns,
		MaxInflight:      *maxInflight,
		QueueDepth:       *queueDepth,
		BreakerThreshold: *brkThresh,
		BreakerCooldown:  *brkCooldown,
		Logf:             log.Printf,
	})
	if err != nil {
		log.Fatalf("provserve: %v", err)
	}
	if *streamTTL > 0 {
		// Sweep a few times per TTL so a stream expires reasonably soon
		// after crossing it, with a floor so tiny TTLs don't busy-loop.
		interval := *streamTTL / 4
		if interval < time.Second {
			interval = time.Second
		}
		go func() {
			for range time.Tick(interval) {
				if expired := srv.SweepIdleStreams(*streamTTL); len(expired) > 0 {
					log.Printf("provserve: expired %d idle stream(s): %v", len(expired), expired)
				}
			}
		}()
	}
	log.Printf("provserve: serving store %q (spec %q, backend %s, scheme %s, ingest %v, stream %v) on %s",
		*storeURL, st.SpecName(), st.Stat().Kind, sch.Name(), *ingest, *stream, *addr)

	httpSrv := repro.NewQueryHTTPServer(*addr, srv)
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("provserve: %v", err)
	case sig := <-stop:
		log.Printf("provserve: %v: shutting down", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("provserve: shutdown: %v", err)
	}
}
