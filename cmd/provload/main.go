// Command provload is the million-user load harness: an open-loop
// multi-tenant load generator that drives a provserve-compatible server
// with N simulated clients, zipfian run popularity and a configurable
// GET /reachable / POST /batch / lineage / POST /rpq / PUT / DELETE /
// streaming ingest traffic mix,
// then reports per-endpoint latency percentiles (p50/p95/p99/max),
// throughput, 429/admission outcomes and SLO verdicts as a
// machine-readable JSON report.
//
// Self-serve mode (the default) builds a corpus and serves it
// in-process, so one command measures the whole stack end to end over
// real HTTP sockets — against any store backend:
//
//	provload -store mem: -clients 16 -rate 500 -duration 10s
//	provload -store fs://./loadstore -runs 128 -run-size 1000
//	provload -store fs://./loadstore -mix reachable=60,batch=20,put=15,delete=5
//	provload -store mem: -mix reachable=60,rpq=10,batch=30   regular path
//	                                                    queries ride along
//	provload -store mem: -mix reachable=70,stream=30    streaming ingest:
//	                                                    each client cycles
//	                                                    append/finish/delete
//	                                                    on its own live run
//
// Target mode drives an already-running provserve instead, discovering
// the read corpus over GET /runs (PUT traffic needs -put-xml run
// documents matching the server's spec):
//
//	provload -target http://127.0.0.1:8080 -clients 64 -rate 2000
//	provload -target http://127.0.0.1:8080 -mix reachable=90,put=10 -put-xml r1.xml,r2.xml
//
// The generator is open-loop (Poisson arrivals at -rate regardless of
// server speed), so saturation shows up honestly as latency growth and
// 429s rather than the harness slowing down to match the server. SLO
// flags turn the report into a verdict; -fail-on-slo makes a FAIL the
// exit code, turning a load run into a gate:
//
//	provload -store mem: -slo-read-p99 50ms -slo-error-rate 0 -fail-on-slo
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/label"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/store"
)

func main() {
	var (
		target  = flag.String("target", "", "base URL of a running provserve to drive (target mode); empty = self-serve mode")
		storeU  = flag.String("store", "mem:", "self-serve mode: store URL (fs://dir, bare path, mem:); created and populated if missing")
		specN   = flag.String("spec", "QBLAST", "self-serve mode: stand-in workflow for a fresh corpus (EBI, PubMed, QBLAST, BioAID, ProScan, ProDisc)")
		runs    = flag.Int("runs", 64, "self-serve mode: corpus size in runs (fresh stores)")
		runSize = flag.Int("run-size", 400, "self-serve mode: target vertices per generated run")
		bodies  = flag.Int("put-bodies", 8, "self-serve mode: distinct run documents cycled by PUT traffic")
		putXML  = flag.String("put-xml", "", "target mode: comma-separated run XML files for PUT traffic")

		clients  = flag.Int("clients", 16, "simulated clients (each with its own arrival process and stream name)")
		rate     = flag.Float64("rate", 500, "total target arrival rate, requests/second (open loop)")
		duration = flag.Duration("duration", 10*time.Second, "load duration")
		mixFlag  = flag.String("mix", "reachable=70,batch=15,lineage=5,put=8,delete=2", "traffic mix weights")
		pairs    = flag.Int("pairs", 16, "pairs per /batch request")
		sbatch   = flag.Int("stream-batch", 32, "events per streaming append (stream traffic)")
		theta    = flag.Float64("theta", 0.99, "zipfian skew of run popularity (0 = uniform)")
		seed     = flag.Int64("seed", 1, "deterministic schedule/query seed")
		maxOut   = flag.Int("max-outstanding", 0, "cap on in-flight requests (harness self-protection; 0 = 4*clients)")
		wnames   = flag.Int("write-names", 32, "writable name pool size for PUT/DELETE traffic")

		retry       = flag.Int("retry", 0, "self-serve mode: retry transient backend errors up to this many attempts (pairs with fault:// store URLs)")
		brkThresh   = flag.Int("breaker-threshold", 0, "self-serve mode: server circuit-breaker threshold (0 = default 5, negative disables)")
		cacheSize   = flag.Int("cache", 16, "self-serve mode: server session-cache size")
		maxInflight = flag.Int("max-inflight", 64, "self-serve mode: server admission bound")
		queueDepth  = flag.Int("queue-depth", 0, "self-serve mode: server admission queue (0 = 2*max-inflight)")

		sloReadP99  = flag.Duration("slo-read-p99", 100*time.Millisecond, "SLO: p99 bound on reachable/batch/lineage (0 = skip)")
		sloWriteP99 = flag.Duration("slo-write-p99", 500*time.Millisecond, "SLO: p99 bound on put/delete (0 = skip)")
		sloErrRate  = flag.Float64("slo-error-rate", 0.005, "SLO: max (5xx+transport errors)/requests (negative = skip)")
		sloThrough  = flag.Float64("slo-throughput", 0, "SLO: min achieved requests/second (0 = skip)")
		failOnSLO   = flag.Bool("fail-on-slo", false, "exit nonzero when the SLO verdict is FAIL")

		reportPath = flag.String("report", "", "write the JSON report here (default: stdout after the text summary)")
		quiet      = flag.Bool("quiet", false, "suppress server logs and the text summary")
	)
	flag.Parse()

	mix, err := loadgen.ParseMix(*mixFlag)
	if err != nil {
		fatalf("%v", err)
	}
	needWrite := mix.Put > 0 || mix.Delete > 0
	needStream := mix.Stream > 0

	cfg := loadgen.Config{
		Clients:        *clients,
		Rate:           *rate,
		Duration:       *duration,
		Mix:            mix,
		BatchPairs:     *pairs,
		Theta:          *theta,
		Seed:           *seed,
		MaxOutstanding: *maxOut,
		WriteNames:     *wnames,
		SLO: &loadgen.SLO{
			ReadP99:       *sloReadP99,
			WriteP99:      *sloWriteP99,
			MaxErrorRate:  *sloErrRate,
			MinThroughput: *sloThrough,
		},
	}

	ctx := context.Background()
	if *target != "" {
		if needStream {
			// Streaming appends must speak the target's workflow spec
			// (hierarchy-node IDs, module names); the harness can only
			// generate matching event logs for a store it opened itself.
			fatalf("stream traffic needs self-serve mode (drop stream= from -mix in target mode)")
		}
		cfg.BaseURL = strings.TrimRight(*target, "/")
		corpus, err := discoverCorpus(ctx, cfg.BaseURL)
		if err != nil {
			fatalf("discovering corpus from %s: %v", cfg.BaseURL, err)
		}
		cfg.Runs = corpus
		if mix.RPQ > 0 {
			// The target's module names are unknown, so the pool is
			// wildcard-only patterns (".", ".*", ...).
			cfg.RPQPatterns = loadgen.RPQPatternPool(nil, 24, *seed+3)
		}
		if mix.Put > 0 {
			if *putXML == "" {
				fatalf("target mode with put traffic needs -put-xml (run documents matching the server's spec)")
			}
			for _, path := range strings.Split(*putXML, ",") {
				b, err := os.ReadFile(strings.TrimSpace(path))
				if err != nil {
					fatalf("%v", err)
				}
				cfg.PutBodies = append(cfg.PutBodies, b)
			}
		}
	} else {
		sp, err := loadgen.StandInSpec(*specN, *seed)
		if err != nil {
			fatalf("%v", err)
		}
		st, created, err := loadgen.OpenOrCreateStore(*storeU, sp, *specN)
		if err != nil {
			fatalf("opening store %s: %v", *storeU, err)
		}
		if *retry > 0 {
			// Wrap before corpus building so it, too, rides the retry
			// layer — a fault:// store injects from the moment it opens.
			st, err = store.OpenBackend(store.WithRetry(st.Backend(), store.RetryPolicy{MaxAttempts: *retry}))
			if err != nil {
				fatalf("reopening store with retry: %v", err)
			}
		}
		defer st.Close()
		var corpus *loadgen.Corpus
		if created {
			corpus, err = loadgen.BuildCorpus(st, *runs, *runSize, *bodies, *seed, label.TCM{})
		} else {
			corpus, err = loadgen.CorpusFromStore(st, label.TCM{})
			if err == nil && needWrite {
				corpus.PutBodies, err = loadgen.RenderPutBodies(st.Spec(), st.SpecName(), *bodies, *runSize, *seed+1)
			}
		}
		if err != nil {
			fatalf("building corpus: %v", err)
		}
		if len(corpus.Runs) == 0 {
			fatalf("store %s holds no runs (delete it or point -store elsewhere to regenerate)", *storeU)
		}
		if needStream {
			cfg.StreamBatches, err = loadgen.StreamEventBatches(st.Spec(), *runSize, *sbatch, *seed+2)
			if err != nil {
				fatalf("building stream batches: %v", err)
			}
		}
		if mix.RPQ > 0 {
			cfg.RPQPatterns = loadgen.RPQPatternPool(st.Spec(), 24, *seed+3)
		}
		logf := log.Printf
		if *quiet {
			logf = nil
		}
		srv, err := server.New(server.Config{
			Store:            st,
			CacheSize:        *cacheSize,
			EnableIngest:     needWrite,
			EnableStream:     needStream,
			MaxInflight:      *maxInflight,
			QueueDepth:       *queueDepth,
			BreakerThreshold: *brkThresh,
			Logf:             logf,
		})
		if err != nil {
			fatalf("%v", err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fatalf("%v", err)
		}
		httpSrv := &http.Server{Handler: srv}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		cfg.BaseURL = "http://" + ln.Addr().String()
		cfg.Runs = corpus.Runs
		cfg.PutBodies = corpus.PutBodies
		if !*quiet {
			log.Printf("provload: self-serving %s (%d runs, spec %s) on %s", *storeU, len(corpus.Runs), st.SpecName(), cfg.BaseURL)
		}
	}

	rep, err := loadgen.Run(ctx, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	if !*quiet {
		rep.WriteText(os.Stderr)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("%v", err)
	}
	enc = append(enc, '\n')
	if *reportPath == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*reportPath, enc, 0o644); err != nil {
		fatalf("%v", err)
	}
	if *failOnSLO && rep.SLO != nil && !rep.SLO.Pass {
		fatalf("SLO verdict FAIL")
	}
}

// discoverCorpus lists the target's runs and fetches each run's vertex
// count, so queries can address vertices by numeric ID.
func discoverCorpus(ctx context.Context, base string) ([]loadgen.RunInfo, error) {
	get := func(url string, v any) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
		}
		return json.NewDecoder(resp.Body).Decode(v)
	}
	var list struct {
		Runs []string `json:"runs"`
	}
	if err := get(base+"/runs", &list); err != nil {
		return nil, err
	}
	if len(list.Runs) == 0 {
		return nil, errors.New("target serves no runs")
	}
	// Cap discovery so pointing the harness at a million-run store does
	// not serialize a million metadata fetches before the first load
	// arrives; the zipfian tail past 1024 ranks carries ~no traffic.
	const maxCorpus = 1024
	if len(list.Runs) > maxCorpus {
		list.Runs = list.Runs[:maxCorpus]
	}
	corpus := make([]loadgen.RunInfo, 0, len(list.Runs))
	for _, name := range list.Runs {
		var info struct {
			Vertices int `json:"vertices"`
		}
		if err := get(base+"/runs?run="+name, &info); err != nil {
			return nil, err
		}
		corpus = append(corpus, loadgen.RunInfo{Name: name, Vertices: info.Vertices})
	}
	return corpus, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "provload: "+format+"\n", args...)
	os.Exit(1)
}
