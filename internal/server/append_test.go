package server

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/events"
	"repro/internal/run"
	"repro/internal/spec"
)

// TestAppendBorrowedBody pins that an append keeps nothing of the
// pooled scratch it parsed in: after every append, the body and event
// bytes of the one scratch the handler is handed are overwritten, and
// the session's applied events, its event log and its answers stay
// what the events say.
func TestAppendBorrowedBody(t *testing.T) {
	sc, pool := new(appendScratch), appendScratchPool
	appendScratchPool = &sync.Pool{New: func() any { return sc }}
	defer func() { appendScratchPool = pool }()
	clobber := func() {
		body := sc.body.Bytes()
		body = body[:cap(body)]
		for i := range body {
			body[i] = 'z'
		}
		evs := sc.evs[:cap(sc.evs)]
		for i := range evs {
			evs[i] = events.Event{Kind: events.ModuleExec, Copy: -1, Module: "zz"}
		}
	}

	sp := spec.PaperSpec()
	r, p := run.GenerateSized(sp, rand.New(rand.NewSource(43)), 80)
	evs := events.Emit(r, p)
	streamed, st := newStreamServer(t, Config{})
	for start := 0; start < len(evs); start += 6 {
		target := fmt.Sprintf("/runs/r/events?offset=%d", start)
		if rec := do(t, streamed, "POST", target, logText(t, evs[start:min(start+6, len(evs))]), nil); rec.Code != 200 {
			t.Fatalf("POST %s: %d %s", target, rec.Code, rec.Body.String())
		}
		if sc.body.Len() == 0 {
			t.Fatal("the handler did not read into the pooled scratch")
		}
		clobber()
	}

	rc, err := st.ReadRunEvents("r")
	if err != nil {
		t.Fatal(err)
	}
	log, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := logText(t, evs); string(log) != want {
		t.Fatalf("event log after clobbering:\n%q\nwant\n%q", log, want)
	}
	// The whole log resent from offset 0 must match the applied events
	// one for one, or the append is a conflict.
	var resp struct{ Applied, Seq int }
	if rec := do(t, streamed, "POST", "/runs/r/events?offset=0", logText(t, evs), &resp); rec.Code != 200 || resp.Applied != 0 || resp.Seq != len(evs) {
		t.Fatalf("resend: %d %s", rec.Code, rec.Body.String())
	}
	clobber()

	direct, _ := newIngestServer(t, Config{})
	if rec := do(t, direct, "PUT", "/runs/r", encodeRun(t, r, nil), nil); rec.Code != 200 {
		t.Fatalf("direct PUT: %d %s", rec.Code, rec.Body.String())
	}
	targets, query := differentialQueries(t, r, "r")
	for _, tg := range targets {
		if got, want := query(streamed, tg), query(direct, tg); got != want {
			t.Errorf("%s: live answer %q, direct-PUT answer %q", tg, got, want)
		}
	}
}

// TestAppendErrorStatuses pins the statuses and error texts of appends
// the parser or the applier refuses: an unknown module is a 409 that
// carries the applied sequence; an over-long line is a 400 with the
// bufio.Scanner text the parser has always reported; and a body over
// the size cap is parsed up to the cap like any other, so a bad line
// within it, even the partial line the cap cuts, is the error (a 400),
// and the size is the error (a 413) only when every line within the
// cap parses.
func TestAppendErrorStatuses(t *testing.T) {
	open, _ := newStreamServer(t, Config{})
	capped, _ := newStreamServer(t, Config{MaxIngestBytes: 64})
	var resp struct {
		Error string
		Seq   int
	}
	for _, s := range []*Server{open, capped} {
		if rec := do(t, s, "POST", "/runs/r/events?offset=0", "exec a copy 0\n", &resp); rec.Code != 200 || resp.Seq != 1 {
			t.Fatalf("first append: %d %s", rec.Code, rec.Body.String())
		}
	}
	for _, c := range []struct {
		name string
		s    *Server
		body string
		code int
		err  string
	}{
		{"unknown module", open, "exec a copy 0\nexec zz copy 0\n", 409, `events: event 1: unknown module "zz"`},
		{"over-long line", open, "exec a copy 0\nexec " + strings.Repeat("m", maxEventLine) + " copy 0\n", 400, "malformed event log: events: bufio.Scanner: token too long"},
		{"oversized, bad first line", capped, "garbage\n" + strings.Repeat("exec a copy 0\n", 10), 400, `malformed event log: events: line 1: unrecognized record "garbage"`},
		{"oversized, cut mid-line", capped, strings.Repeat("exec a copy 0\n", 10), 400, `malformed event log: events: line 5: unrecognized record "exec a c"`},
		{"oversized, cut at a line end", capped, strings.Repeat("exec a copy 001\n", 10), 413, "request body exceeds 64 bytes"},
	} {
		resp.Error, resp.Seq = "", -1
		rec := do(t, c.s, "POST", "/runs/r/events?offset=1", c.body, &resp)
		if rec.Code != c.code || resp.Error != c.err {
			t.Errorf("%s: %d %q, want %d %q", c.name, rec.Code, resp.Error, c.code, c.err)
		}
		if c.code == 409 && resp.Seq != 1 {
			t.Errorf("%s: seq %d, want 1", c.name, resp.Seq)
		}
	}
	// Nothing refused was applied: both streams continue at sequence 1.
	for _, s := range []*Server{open, capped} {
		if rec := do(t, s, "POST", "/runs/r/events?offset=1", "exec b copy 0\n", &resp); rec.Code != 200 || resp.Seq != 2 {
			t.Fatalf("append after the refusals: %d %s", rec.Code, rec.Body.String())
		}
	}
}
