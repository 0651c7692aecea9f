package loadgen

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/label"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/store/faultinject"
)

// TestLoadSmoke drives a short mixed-traffic run against an in-process
// mem-store server — the whole harness end to end over real HTTP, and
// (under `go test -race`) a data-race check on the open-loop driver.
func TestLoadSmoke(t *testing.T) {
	sp, err := StandInSpec("QBLAST", 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.NewMem(sp, "QBLAST")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	corpus, err := BuildCorpus(st, 4, 120, 2, 1, label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: st, EnableIngest: true, EnableStream: true, CacheSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	batches, err := StreamEventBatches(sp, 80, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), Config{
		BaseURL:       ts.URL,
		Clients:       4,
		Rate:          200,
		Duration:      1200 * time.Millisecond,
		Mix:           Mix{Reachable: 55, Batch: 15, Lineage: 5, Put: 8, Delete: 2, Stream: 15},
		Runs:          corpus.Runs,
		PutBodies:     corpus.PutBodies,
		StreamBatches: batches,
		BatchPairs:    8,
		Seed:          1,
		SLO:           &SLO{ReadP99: 5 * time.Second, WriteP99: 5 * time.Second, MaxErrorRate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}

	if rep.Total.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if rep.Total.ServerErrors != 0 || rep.Total.NetErrors != 0 {
		t.Fatalf("errors against a healthy server: 5xx=%d net=%d", rep.Total.ServerErrors, rep.Total.NetErrors)
	}
	for _, op := range []string{"reachable", "batch", "stream"} {
		es := rep.Endpoints[op]
		if es == nil || es.Requests == 0 {
			t.Fatalf("%s saw no traffic under the default mix", op)
		}
		l := es.Latency
		if l == nil {
			t.Fatalf("%s has no latency summary", op)
		}
		if !(l.P50Us <= l.P95Us && l.P95Us <= l.P99Us && l.P99Us <= l.MaxUs) {
			t.Errorf("%s percentiles not monotone: %+v", op, l)
		}
	}
	if rep.Server == nil {
		t.Fatal("no server-side /healthz delta in the report")
	}
	if rep.Server.Admitted == 0 {
		t.Error("server admitted no requests")
	}
	if rep.Server.Served["reachable"] == 0 {
		t.Error("server-side served counter for /reachable is zero")
	}
	// Client-completed requests can never exceed what the server says
	// it dispatched plus harness-side sheds.
	var served int64
	for _, v := range rep.Server.Served {
		served += v
	}
	if rep.Total.Requests > served {
		t.Errorf("client completed %d requests but server only served %d", rep.Total.Requests, served)
	}
	if rep.SLO == nil || len(rep.SLO.Verdicts) == 0 {
		t.Fatal("no SLO verdicts")
	}
	if !rep.SLO.Pass {
		t.Errorf("generous SLO failed: %+v", rep.SLO.Verdicts)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
}

// TestLoadSheddingUnderTightAdmission pins the harness's 429
// accounting: a server with a one-slot, one-queue admission gate over a
// slow backend (5 ms per call, one cached session for two runs, so
// most queries hold the slot through a cold load) must shed some of an
// aggressive open-loop schedule, and the report must show it.
func TestLoadSheddingUnderTightAdmission(t *testing.T) {
	sp, err := StandInSpec("QBLAST", 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.NewMem(sp, "QBLAST")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	corpus, err := BuildCorpus(st, 2, 100, 0, 1, label.TCM{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := store.OpenBackend(faultinject.Wrap(st.Backend(),
		faultinject.Plan{Default: faultinject.Rule{Latency: 5 * time.Millisecond}}))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: slow, CacheSize: 1, MaxInflight: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Clients:  4,
		Rate:     400,
		Duration: time.Second,
		Mix:      Mix{Reachable: 1},
		Runs:     corpus.Runs,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ep := rep.Endpoints["reachable"]
	t.Logf("%d requests, %d answered 429", ep.Requests, ep.Rejected429)
	if ep.Rejected429 == 0 {
		t.Error("tight admission gate never produced a 429")
	}
	if rep.Server != nil && rep.Server.RejectedQueue == 0 {
		t.Error("server-side rejection counters did not move")
	}
}
