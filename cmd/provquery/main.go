// Command provquery answers provenance queries, either by labeling a
// run from XML files or straight from a provenance store's persisted
// labels.
//
// Usage:
//
//	provquery -spec s.xml -run r.xml -from b1 -to c3
//	provquery -spec s.xml -run r.xml -scheme BFS -stats
//	provquery -spec s.xml -run r.xml -affected x1     # data provenance
//
// With -store, queries hit a stored run's snapshot labels (nothing is
// relabeled) and -run names the stored run instead of an XML file. The
// store URL picks the backend: fs://dir (or a bare path) or mem://dir.
//
//	provquery -store ./provstore -run r1 -from b1 -to c3
//	provquery -store 'mem://./provstore' -run r1 -stats
//
// With -put, provquery becomes an ingest smoke-test client: it PUTs the
// run XML at -run to a running provserve (started with -ingest) under
// the name given by -as (default: the file's base name), prints the
// stored snapshot's version and size, and — when -from/-to are also
// given — immediately queries /reachable over the wire to prove the
// just-ingested run answers:
//
//	provquery -put http://localhost:8080 -run r.xml -as r2 -from b1 -to c3
//
// With -delete, provquery is the deletion smoke-test client: it sends
// DELETE /runs/{name} for the stored run named by -run to a running
// provserve (started with -ingest) and confirms the run is gone — the
// command-line face of the server's run-retirement path:
//
//	provquery -delete http://localhost:8080 -run r2
//
// With -append, provquery is a streaming ingest client: it reads the
// engine event log at -run (the events.WriteLog text format) and
// appends it to a provserve (started with -stream) in batches of
// -batch events, resuming idempotently from the server's applied
// sequence — rerunning the same command after a crash or lost response
// never double-applies an event. -finish then seals the live run into
// a stored, queryable one:
//
//	provquery -append http://localhost:8080 -run r3.events -as r3
//	provquery -finish http://localhost:8080 -run r3
//
// With -rpq, provquery asks a running provserve a regular path query:
// does some dependency path from -from to -to spell a word matching
// -pattern, a regular expression over module names (alternation `|`,
// concatenation, quantifiers `* + ?`, wildcard `.`, grouping)? Live
// streamed runs answer too:
//
//	provquery -rpq http://localhost:8080 -run r1 -from a1 -to h1 -pattern '(b|c)* d .*'
//
// Vertices are addressed by occurrence name (module name plus occurrence
// index, e.g. "b2" for the second execution of module b), data items by
// their item name from the run XML.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro"
)

func main() {
	var (
		specPath    = flag.String("spec", "", "specification XML (required unless -store is given)")
		runPath     = flag.String("run", "", "run XML, or the stored run name with -store (required)")
		storeURL    = flag.String("store", "", "provenance store URL (fs://dir, bare path, mem://dir); queries use stored labels")
		scheme      = flag.String("scheme", "TCM", "specification labeling scheme (TCM, BFS, DFS, Interval, Chain)")
		from        = flag.String("from", "", "source vertex occurrence name (e.g. b1)")
		to          = flag.String("to", "", "target vertex occurrence name (e.g. c3)")
		affected    = flag.String("affected", "", "list data items depending on this item")
		explain     = flag.Bool("explain", false, "with -from/-to: print a concrete dependency path as evidence")
		upstream    = flag.String("upstream", "", "list every module execution this vertex was derived from")
		stats       = flag.Bool("stats", false, "print labeling statistics")
		interactive = flag.Bool("i", false, "read queries from stdin: lines of \"<from> <to>\"")
		putURL      = flag.String("put", "", "provserve base URL: PUT the run XML at -run to the server (ingest smoke test)")
		putAs       = flag.String("as", "", "stored run name for -put (default: the run file's base name)")
		deleteURL   = flag.String("delete", "", "provserve base URL: DELETE the stored run named by -run from the server")
		appendURL   = flag.String("append", "", "provserve base URL: stream the event log at -run to the server (POST /runs/{name}/events)")
		appendBatch = flag.Int("batch", 64, "events per request for -append")
		appendRetry = flag.Int("retries", 8, "transient failures (503/429/network) tolerated across one -append, with capped backoff and cursor resync")
		finishURL   = flag.String("finish", "", "provserve base URL: seal the live run named by -run (POST /runs/{name}/finish)")
		rpqURL      = flag.String("rpq", "", "provserve base URL: evaluate -pattern between -from and -to on the run named by -run (POST /rpq)")
		pattern     = flag.String("pattern", "", "regular path query pattern over module names, for -rpq")
	)
	flag.Parse()
	if *rpqURL != "" {
		if *runPath == "" || *from == "" || *to == "" || *pattern == "" {
			fatalf("-rpq needs -run <stored run name>, -from, -to and -pattern")
		}
		rpqQuery(*rpqURL, *runPath, *from, *to, *pattern)
		return
	}
	if *putURL != "" {
		if *runPath == "" {
			fatalf("-put needs -run <run XML file>")
		}
		putRun(*putURL, *runPath, *putAs, *from, *to)
		return
	}
	if *deleteURL != "" {
		if *runPath == "" {
			fatalf("-delete needs -run <stored run name>")
		}
		deleteRun(*deleteURL, *runPath)
		return
	}
	if *appendURL != "" {
		if *runPath == "" {
			fatalf("-append needs -run <event log file>")
		}
		appendEvents(*appendURL, *runPath, *putAs, *appendBatch, *appendRetry)
		return
	}
	if *finishURL != "" {
		if *runPath == "" {
			fatalf("-finish needs -run <live run name>")
		}
		finishRun(*finishURL, *runPath)
		return
	}
	if *storeURL == "" && (*specPath == "" || *runPath == "") {
		fatalf("-spec and -run are required (or -store with -run)")
	}
	if *storeURL != "" && *runPath == "" {
		fatalf("-store needs -run <stored run name>")
	}

	sch, err := repro.SpecSchemeByName(*scheme)
	if err != nil {
		fatalf("%v", err)
	}

	var (
		s    *repro.Spec
		r    *repro.Run
		ann  *repro.DataAnnotation
		l    *repro.Labeling
		sess *repro.StoreSession
	)
	if *storeURL != "" {
		// Store mode: the run was labeled at ingest; bind its stored
		// snapshot to the scheme's skeleton labels and query directly.
		st, err := repro.OpenStoreURL(*storeURL)
		if err != nil {
			fatalf("%v", err)
		}
		sess, err = st.OpenRun(*runPath, sch)
		if err != nil {
			fatalf("%v", err)
		}
		if r, ann, err = sess.Document(); err != nil {
			fatalf("%v", err)
		}
		s, l = st.Spec(), sess.Labels
	} else {
		sf, err := os.Open(*specPath)
		if err != nil {
			fatalf("%v", err)
		}
		var specErr error
		s, _, specErr = repro.ReadSpecXML(sf)
		sf.Close()
		if specErr != nil {
			fatalf("spec: %v", specErr)
		}
		rf, err := os.Open(*runPath)
		if err != nil {
			fatalf("%v", err)
		}
		var runErr error
		r, ann, runErr = repro.ReadRunXML(rf, s)
		rf.Close()
		if runErr != nil {
			fatalf("run: %v", runErr)
		}
		l, err = repro.LabelRun(r, sch)
		if err != nil {
			fatalf("label: %v", err)
		}
	}

	if *stats {
		fmt.Printf("run: %d vertices, %d edges\n", r.NumVertices(), r.NumEdges())
		fmt.Printf("spec: %d vertices, %d edges, |TG|=%d [TG]=%d\n",
			s.NumVertices(), s.NumEdges(), s.Hier.NumNodes(), s.Hier.MaxDepth)
		fmt.Printf("labels: max %d bits, avg %.2f bits, n+T=%d\n",
			l.MaxLabelBits(), l.AvgLabelBits(), l.NumPositioned())
		fmt.Printf("skeleton: %s, %d index bits\n", *scheme, l.Skeleton().IndexBits())
		if sess != nil {
			fmt.Printf("snapshot: %s codec, %d bytes (%.2f bytes/label)\n",
				sess.SnapshotVersion, sess.SnapshotBytes,
				float64(sess.SnapshotBytes)/float64(r.NumVertices()))
		}
	}

	nm := repro.NewNamer(r)
	if *from != "" || *to != "" {
		if *from == "" || *to == "" {
			fatalf("-from and -to must be given together")
		}
		u := mustVertex(nm, *from)
		v := mustVertex(nm, *to)
		if l.Reachable(u, v) {
			fmt.Printf("%s -> %s: reachable (%s depends on %s)\n", *from, *to, *to, *from)
			if *explain {
				path := repro.Explain(r, u, v)
				fmt.Print("  via:")
				for _, p := range path {
					fmt.Printf(" %s", nm.Name(p))
				}
				fmt.Println()
			}
		} else {
			fmt.Printf("%s -> %s: NOT reachable\n", *from, *to)
		}
	}

	if *upstream != "" {
		v := mustVertex(nm, *upstream)
		cone := repro.UpstreamByLabels(l, v)
		fmt.Printf("%s was derived from %d module executions:", *upstream, len(cone))
		for _, u := range cone {
			fmt.Printf(" %s", nm.Name(u))
		}
		fmt.Println()
	}

	if *interactive {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) == 0 {
				continue
			}
			if len(fields) != 2 {
				fmt.Println("? expected: <from> <to>")
				continue
			}
			u, okU := nm.Vertex(fields[0])
			v, okV := nm.Vertex(fields[1])
			if !okU || !okV {
				fmt.Println("? unknown vertex")
				continue
			}
			fmt.Println(l.Reachable(u, v))
		}
		if err := sc.Err(); err != nil {
			fatalf("stdin: %v", err)
		}
	}

	if *affected != "" {
		if ann == nil {
			fatalf("run XML carries no data items")
		}
		dl, err := repro.LabelData(ann, l)
		if err != nil {
			fatalf("%v", err)
		}
		x, err := findItem(ann, *affected)
		if err != nil {
			fatalf("%v", err)
		}
		deps := dl.AffectedItems(x)
		fmt.Printf("%d items depend on %s:", len(deps), *affected)
		for _, d := range deps {
			fmt.Printf(" %s", ann.Items[d].Name)
		}
		fmt.Println()
	}
}

// putRun PUTs the run XML at path to a provserve under name (default:
// the file's base name without .xml), then optionally smoke-tests the
// ingested run with one /reachable query over the wire.
func putRun(baseURL, path, name, from, to string) {
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), ".xml")
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	base := strings.TrimSuffix(baseURL, "/")
	req, err := http.NewRequest(http.MethodPut, base+"/runs/"+url.PathEscape(name), bytes.NewReader(doc))
	if err != nil {
		fatalf("%v", err)
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatalf("%v", err)
	}
	defer resp.Body.Close()
	var put struct {
		Run             string `json:"run"`
		Vertices        int    `json:"vertices"`
		Edges           int    `json:"edges"`
		DataItems       int    `json:"data_items"`
		SnapshotVersion string `json:"snapshot_version"`
		SnapshotBytes   int    `json:"snapshot_bytes"`
		Error           string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&put); err != nil {
		fatalf("PUT %s: status %d, unreadable body: %v", name, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		fatalf("PUT %s: status %d: %s", name, resp.StatusCode, put.Error)
	}
	fmt.Printf("stored %s: %d vertices, %d edges, %d data items, %s snapshot (%d bytes)\n",
		put.Run, put.Vertices, put.Edges, put.DataItems, put.SnapshotVersion, put.SnapshotBytes)
	if from == "" || to == "" {
		return
	}
	q := url.Values{"run": {name}, "from": {from}, "to": {to}}
	qresp, err := http.Get(base + "/reachable?" + q.Encode())
	if err != nil {
		fatalf("%v", err)
	}
	defer qresp.Body.Close()
	var reach struct {
		Reachable bool   `json:"reachable"`
		Error     string `json:"error"`
	}
	if err := json.NewDecoder(qresp.Body).Decode(&reach); err != nil {
		fatalf("reachable: status %d, unreadable body: %v", qresp.StatusCode, err)
	}
	if qresp.StatusCode != http.StatusOK {
		fatalf("reachable: status %d: %s", qresp.StatusCode, reach.Error)
	}
	if reach.Reachable {
		fmt.Printf("%s -> %s: reachable (%s depends on %s)\n", from, to, to, from)
	} else {
		fmt.Printf("%s -> %s: NOT reachable\n", from, to)
	}
}

// appendEvents streams the event log at path to a provserve under name
// (default: the file's base name without .events), in batches with an
// offset cursor. It first asks the server where the stream stands
// (GET /runs/{name}), so rerunning after a crash or lost response
// resumes from the applied sequence instead of re-sending everything.
// liveStatus asks the server where the named run stands: (seq, true)
// for a live stream, (0, false) for an unknown run, and an error for
// anything else — a finished run, an unreachable server. It seeds the
// append cursor and resyncs it after a retried outage.
func liveStatus(base, name string) (int, bool, error) {
	resp, err := http.Get(base + "/runs/" + url.PathEscape(name))
	if err != nil {
		return 0, false, err
	}
	var status struct {
		Status string `json:"status"`
		Events int    `json:"events"`
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK && err == nil && status.Status == "live":
		return status.Events, true, nil
	case resp.StatusCode == http.StatusOK && err == nil:
		return 0, false, fmt.Errorf("run %q is already finished", name)
	case resp.StatusCode == http.StatusNotFound:
		return 0, false, nil
	default:
		return 0, false, fmt.Errorf("GET /runs/%s: status %d", name, resp.StatusCode)
	}
}

// transientAppend classifies one failed POST as retryable: a network
// error, or the server shedding load (503 degraded mode, 429 admission
// control) — exactly the failures where backing off and resending the
// same offsets is safe, because an unacknowledged append applied
// nothing (the store's transient contract) and an acknowledged one is
// idempotent to resend.
func transientAppend(err error, statusCode int) bool {
	return err != nil ||
		statusCode == http.StatusServiceUnavailable ||
		statusCode == http.StatusTooManyRequests
}

func appendEvents(baseURL, path, name string, batch, retries int) {
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), ".events")
	}
	if batch < 1 {
		batch = 1
	}
	f, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	evs, err := repro.ReadEventLog(f)
	f.Close()
	if err != nil {
		fatalf("%s: %v", path, err)
	}
	base := strings.TrimSuffix(baseURL, "/")
	seq, _, err := liveStatus(base, name)
	if err != nil {
		fatalf("%v", err)
	}
	if seq > 0 {
		fmt.Printf("resuming %s at sequence %d\n", name, seq)
	}
	if seq > len(evs) {
		fatalf("server has %d events applied but %s holds only %d", seq, path, len(evs))
	}
	var last struct {
		Applied  int    `json:"applied"`
		Seq      int    `json:"seq"`
		Vertices int    `json:"vertices"`
		Copies   int    `json:"copies"`
		Error    string `json:"error"`
	}
	applied := 0
	if seq == len(evs) {
		fmt.Printf("%s already holds all %d events, nothing to apply\n", name, seq)
		return
	}
	backoff := 200 * time.Millisecond
	const maxBackoff = 2 * time.Second
	for seq < len(evs) {
		end := seq + batch
		if end > len(evs) {
			end = len(evs)
		}
		var body bytes.Buffer
		if err := repro.WriteEventLog(&body, evs[seq:end]); err != nil {
			fatalf("%v", err)
		}
		target := fmt.Sprintf("%s/runs/%s/events?offset=%d", base, url.PathEscape(name), seq)
		resp, err := http.Post(target, "text/plain", &body)
		statusCode := 0
		if resp != nil {
			statusCode = resp.StatusCode
		}
		if transientAppend(err, statusCode) {
			// The server is briefly down (restarting, degraded, shedding
			// load): honor its Retry-After if it gave one, back off, resync
			// the cursor from its status (a restarted server may have
			// recovered at an earlier sequence than we believe), and resend.
			wait := backoff
			if resp != nil {
				if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
					if ra := time.Duration(secs) * time.Second; ra > wait {
						wait = ra
					}
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if retries <= 0 {
				if err != nil {
					fatalf("POST events at offset %d: %v (retries exhausted)", seq, err)
				}
				fatalf("POST events at offset %d: status %d (retries exhausted)", seq, statusCode)
			}
			retries--
			if wait > maxBackoff {
				wait = maxBackoff
			}
			fmt.Fprintf(os.Stderr, "provquery: append at offset %d unavailable, retrying in %v (%d retries left)\n", seq, wait, retries)
			time.Sleep(wait)
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
			if cur, live, serr := liveStatus(base, name); serr == nil && live && cur < seq {
				seq = cur
			}
			continue
		}
		err = json.NewDecoder(resp.Body).Decode(&last)
		resp.Body.Close()
		if err != nil {
			fatalf("POST events: status %d, unreadable body: %v", resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusOK {
			fatalf("POST events at offset %d: status %d: %s", seq, resp.StatusCode, last.Error)
		}
		backoff = 200 * time.Millisecond
		seq = last.Seq
		applied += last.Applied
	}
	fmt.Printf("streamed %s: %d events applied, %d module executions in %d copies\n",
		name, applied, last.Vertices, last.Copies)
}

// finishRun seals a live streamed run into a stored one and reports the
// persisted snapshot.
func finishRun(baseURL, name string) {
	base := strings.TrimSuffix(baseURL, "/")
	resp, err := http.Post(base+"/runs/"+url.PathEscape(name)+"/finish", "text/plain", nil)
	if err != nil {
		fatalf("%v", err)
	}
	defer resp.Body.Close()
	var fin struct {
		Run             string `json:"run"`
		Vertices        int    `json:"vertices"`
		Edges           int    `json:"edges"`
		Events          int    `json:"events"`
		SnapshotVersion string `json:"snapshot_version"`
		SnapshotBytes   int    `json:"snapshot_bytes"`
		Error           string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fin); err != nil {
		fatalf("finish %s: status %d, unreadable body: %v", name, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		fatalf("finish %s: status %d: %s", name, resp.StatusCode, fin.Error)
	}
	fmt.Printf("finished %s: %d events -> %d vertices, %d edges, %s snapshot (%d bytes)\n",
		fin.Run, fin.Events, fin.Vertices, fin.Edges, fin.SnapshotVersion, fin.SnapshotBytes)
}

// rpqQuery sends one POST /rpq to a provserve and reports whether any
// dependency path from 'from' to 'to' matches the pattern, exiting
// nonzero on any server refusal (bad pattern, unknown run or vertex).
func rpqQuery(baseURL, name, from, to, pattern string) {
	base := strings.TrimSuffix(baseURL, "/")
	body, err := json.Marshal(map[string]string{
		"run": name, "from": from, "to": to, "pattern": pattern,
	})
	if err != nil {
		fatalf("%v", err)
	}
	resp, err := http.Post(base+"/rpq", "application/json", bytes.NewReader(body))
	if err != nil {
		fatalf("%v", err)
	}
	defer resp.Body.Close()
	var ans struct {
		Match bool   `json:"match"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		fatalf("rpq %s: status %d, unreadable body: %v", name, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		fatalf("rpq %s: status %d: %s", name, resp.StatusCode, ans.Error)
	}
	if ans.Match {
		fmt.Printf("%s -> %s: some path matches %q\n", from, to, pattern)
	} else {
		fmt.Printf("%s -> %s: no path matches %q\n", from, to, pattern)
	}
}

// deleteRun sends DELETE /runs/{name} to a provserve and reports the
// outcome, exiting nonzero when the server refuses (read-only server,
// unknown run) so scripts can rely on the status.
func deleteRun(baseURL, name string) {
	base := strings.TrimSuffix(baseURL, "/")
	req, err := http.NewRequest(http.MethodDelete, base+"/runs/"+url.PathEscape(name), nil)
	if err != nil {
		fatalf("%v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fatalf("%v", err)
	}
	defer resp.Body.Close()
	var del struct {
		Run     string `json:"run"`
		Deleted bool   `json:"deleted"`
		Error   string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&del); err != nil {
		fatalf("DELETE %s: status %d, unreadable body: %v", name, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || !del.Deleted {
		fatalf("DELETE %s: status %d: %s", name, resp.StatusCode, del.Error)
	}
	fmt.Printf("deleted %s\n", del.Run)
}

func mustVertex(nm *repro.Namer, name string) repro.VertexID {
	v, ok := nm.Vertex(name)
	if !ok {
		fatalf("no vertex named %q in the run", name)
	}
	return v
}

func findItem(ann *repro.DataAnnotation, name string) (repro.DataItemID, error) {
	for _, it := range ann.Items {
		if it.Name == name {
			return it.ID, nil
		}
	}
	return 0, fmt.Errorf("no data item named %q", name)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "provquery: "+format+"\n", args...)
	os.Exit(1)
}
