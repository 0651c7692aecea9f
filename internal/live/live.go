// Package live owns per-run streaming ingest sessions: runs that are
// being labeled event-by-event while the workflow still executes,
// instead of arriving as one finished document. Each Session feeds its
// events.Event appends to an events.Applier, which owns the
// online.Labeler (the paper's Section 9 incremental scheme), the copy
// table the execution tree is reconstructed from and the run.Namer
// that names vertices as they execute. A session checks every batch
// with the applier, persists it to a per-run event log blob
// (store.Backend.AppendEventLog), and only then applies it.
//
// # Durability
//
// The event log is the stream's one durable copy: the online scheme
// labels a run from its event sequence alone, so Recover rebuilds a
// session by replaying the log, and a crash loses no acknowledged
// event. Nothing else is written while a stream runs. The one other
// blob is a checkpoint (an atomic meta blob holding an applied event
// prefix and the log bytes it covers), which Recover writes only to
// fence a torn final record a crashed append left: later appends land
// after the garbage, and recovery slices the log at the checkpoint's
// byte offset, so the garbage is never parsed. Stores written by
// earlier versions may also hold periodic checkpoints; Recover reads
// those the same way. DeleteState removes the log and any checkpoint.
//
// # Wire protocol
//
// Appends carry an offset: the sequence number of the batch's first
// event. A batch whose offset runs past the applied sequence is a gap
// (ErrGap); a batch overlapping the applied prefix must resend the
// identical events (idempotent resume — anything else is ErrConflict)
// and only the surplus is applied. Copies must be numbered densely in
// start order (copy 0 is the run itself and is never started), parents
// before children and loop iterations in serial order — the convention
// events.Emit produces. events.Applier.Check enforces it, the check
// events.Replay makes, so a log one accepts the other accepts too, and
// a batch in the log always applies. Streams following it replay to
// the same dense vertex IDs run.Materialize assigns, which is what lets
// Finish seal the session into a stored run answering queries
// byte-identically to the same run ingested as one document.
//
// # Concurrency
//
// A Session is not self-synchronizing: the serving layer serializes
// appends, finishes and queries per run name (its striped run locks —
// appends under the write side, queries under the read side). The Registry and Gauges are safe for concurrent use on their
// own locks/atomics, so health endpoints never block on a stream.
package live

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dag"
	"repro/internal/events"
	"repro/internal/label"
	"repro/internal/plan"
	"repro/internal/run"
	"repro/internal/store"
)

// ErrGap reports an append whose offset lies beyond the applied event
// sequence: the client skipped ahead and must resume from Seq.
var ErrGap = errors.New("live: offset beyond the applied event sequence")

// ErrConflict reports an append overlapping the applied prefix with
// different events: resume must resend what was acknowledged verbatim.
var ErrConflict = errors.New("live: resent events conflict with the applied history")

// EventError reports a semantically invalid event (unknown module,
// out-of-sequence copy, wrong hierarchy parent); an append's Index is
// within the fresh part of its batch. Nothing from the batch is applied.
type EventError = events.EventError

// IncompleteError reports a Finish on a stream that does not describe a
// complete run: some fork or loop site has no copy yet, or the exec
// order diverged from the Emit convention so the materialized vertex
// numbering would not match the live one.
type IncompleteError struct{ Err error }

func (e *IncompleteError) Error() string { return fmt.Sprintf("live: run incomplete: %v", e.Err) }
func (e *IncompleteError) Unwrap() error { return e.Err }

// Gauges are the streaming subsystem's process-wide counters, mirrored
// into atomics so /healthz reads them without touching any run lock.
type Gauges struct {
	open        atomic.Int64
	events      atomic.Int64
	renumbers   atomic.Int64
	replays     atomic.Int64
	checkpoints atomic.Int64
}

// Stats is a snapshot of Gauges for serialization.
type Stats struct {
	// Open counts live sessions currently registered.
	Open int64 `json:"open"`
	// Events counts events applied in this process (including replays).
	Events int64 `json:"events"`
	// Renumbers counts online-labeler key redistributions.
	Renumbers int64 `json:"renumbers"`
	// Replays counts crash recoveries performed.
	Replays int64 `json:"replays"`
	// Checkpoints counts checkpoints written: torn-tail fences, unless
	// a caller checkpoints on its own.
	Checkpoints int64 `json:"checkpoints"`
}

func (g *Gauges) snapshot() Stats {
	return Stats{
		Open:        g.open.Load(),
		Events:      g.events.Load(),
		Renumbers:   g.renumbers.Load(),
		Replays:     g.replays.Load(),
		Checkpoints: g.checkpoints.Load(),
	}
}

// Registry holds the open live sessions by run name. Lookup/insert/
// remove are guarded by its own lock; the sessions themselves are
// still the caller's to serialize per name.
type Registry struct {
	mu       sync.RWMutex
	sessions map[string]*Session // guarded by mu
	g        Gauges
}

// NewRegistry returns an empty session registry.
func NewRegistry() *Registry {
	return &Registry{sessions: make(map[string]*Session)}
}

// Gauges returns the registry's counters, to pass into NewSession and
// Recover so session activity is reflected in Stats.
func (r *Registry) Gauges() *Gauges { return &r.g }

// Get returns the live session for name, or nil.
func (r *Registry) Get(name string) *Session {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sessions[name]
}

// Put registers a session under name.
func (r *Registry) Put(name string, s *Session) {
	r.mu.Lock()
	r.sessions[name] = s
	r.mu.Unlock()
	r.g.open.Add(1)
}

// Remove unregisters and returns name's session (nil if absent),
// retiring its contribution to the open-sessions gauge.
func (r *Registry) Remove(name string) *Session {
	r.mu.Lock()
	s := r.sessions[name]
	delete(r.sessions, name)
	r.mu.Unlock()
	if s != nil {
		r.g.open.Add(-1)
	}
	return s
}

// Len returns the number of open sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// Names returns the open sessions' run names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.sessions))
	for n := range r.sessions {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Stats snapshots the registry's gauges.
func (r *Registry) Stats() Stats { return r.g.snapshot() }

// CheckpointMeta returns the store meta blob name holding the named
// run's stream checkpoint. An absent or empty blob means no checkpoint.
func CheckpointMeta(name string) string { return ".ckpt-" + name }

// ListStreams lists the runs with an event log in st: the runs that
// may hold durable stream state to Recover.
func ListStreams(st *store.Store) ([]string, error) { return st.Backend().ListEventLogs() }

// readCheckpoint reads name's checkpoint blob; an absent one reads as
// empty.
func readCheckpoint(st *store.Store, name string) ([]byte, error) {
	rc, err := st.Backend().ReadMeta(CheckpointMeta(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	var ckpt []byte
	if err == nil {
		ckpt, err = io.ReadAll(rc)
		rc.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("live: reading checkpoint for %q: %w", name, err)
	}
	return ckpt, nil
}

// DeleteState deletes name's durable stream state from st and reports
// whether there was any: its event log, then its checkpoint if it has
// one (clearing writes the checkpoint empty, so a run without one gets
// no blob). A failed read is an error, never a "no", and removes
// nothing; otherwise DeleteState stops at the first failure. The log
// goes first: a checkpoint left without its log still counts as state,
// and Recover refuses it rather than resurrect a stream, so a retried
// DeleteState removes it.
func DeleteState(st *store.Store, name string) (bool, error) {
	ckpt, err := readCheckpoint(st, name)
	if err != nil {
		return false, err
	}
	switch rc, err := st.ReadRunEvents(name); {
	case err == nil:
		rc.Close()
		if err := st.DeleteRunEvents(name); err != nil {
			return false, fmt.Errorf("live: deleting event log for %q: %w", name, err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return false, fmt.Errorf("live: reading event log for %q: %w", name, err)
	case len(ckpt) == 0:
		return false, nil
	}
	if len(ckpt) > 0 {
		if err := st.Backend().WriteMeta(CheckpointMeta(name), nil); err != nil {
			return false, fmt.Errorf("live: clearing checkpoint for %q: %w", name, err)
		}
	}
	return true, nil
}

// Session is one run being ingested event-by-event.
type Session struct {
	name string
	st   *store.Store
	g    *Gauges

	// app holds the labeler, the copy table Finish materializes and the
	// namer, and checks every batch before it reaches the log.
	app     *events.Applier
	history []events.Event

	// logBytes is how much of the run's event log this session's history
	// accounts for; appends extend it, recovery re-derives it.
	logBytes     int64
	ckptSeq      int
	ckptLogBytes int64

	lastRenumbers int
	broken        bool

	// lastActive is the wall time (unix nanos) of the session's last
	// append or query, stored atomically so the serving layer's idle-TTL
	// sweep reads it without the run lock. Zero means never touched;
	// NewSession stamps creation time so a session is never instantly
	// idle.
	lastActive atomic.Int64
}

// Touch stamps the session as active now. The serving layer calls it on
// every append and query; SweepIdleStreams compares against it.
func (s *Session) Touch() { s.lastActive.Store(time.Now().UnixNano()) }

// LastActive returns the time of the session's last Touch.
func (s *Session) LastActive() time.Time { return time.Unix(0, s.lastActive.Load()) }

// NewSession starts an empty live session for name over the store's
// specification. Pass the registry's Gauges (nil disconnects metrics).
func NewSession(st *store.Store, name string, skel label.Labeling, g *Gauges) *Session {
	if g == nil {
		g = new(Gauges)
	}
	s := &Session{name: name, st: st, g: g, app: events.NewApplier(st.Spec(), skel)}
	s.Touch()
	return s
}

// Seq returns the number of events applied — the offset the next
// append continues from.
func (s *Session) Seq() int { return len(s.history) }

// NumCopies returns the number of started copies including the root.
func (s *Session) NumCopies() int { return len(s.app.Table().HNode) }

// Renumbers reports the labeler's key redistributions so far.
func (s *Session) Renumbers() int { return s.app.Labeler().Renumbers() }

// CheckpointSeq returns the sequence the last checkpoint covered
// (0 when none was written).
func (s *Session) CheckpointSeq() int { return s.ckptSeq }

// SinceCheckpoint returns how many applied events lie past the last
// checkpoint: all of them when none was written.
func (s *Session) SinceCheckpoint() int { return len(s.history) - s.ckptSeq }

// EventLogBytes returns how many event-log bytes the session covers.
func (s *Session) EventLogBytes() int64 { return s.logBytes }

// Broken reports whether a storage failure left the session's durable
// state unknown; a broken session rejects appends until re-recovered.
func (s *Session) Broken() bool { return s.broken }

// Append applies a batch whose first event has sequence number offset.
// Events up to the current sequence must match the applied history
// (they are skipped — idempotent resume after a lost response); the
// rest is validated, durably appended to the run's event log, and only
// then applied to the labeler. It returns how many events were newly
// applied. On ErrGap, ErrConflict or *EventError nothing was applied;
// on a storage error the session is marked broken (the log's tail is
// unknown) and must be rebuilt with Recover.
func (s *Session) Append(evs []events.Event, offset int) (int, error) {
	if s.broken {
		return 0, fmt.Errorf("live: session %q needs recovery after a storage failure", s.name)
	}
	if offset < 0 || offset > len(s.history) {
		return 0, fmt.Errorf("%w: offset %d with %d applied", ErrGap, offset, len(s.history))
	}
	overlap := len(s.history) - offset
	if overlap > len(evs) {
		overlap = len(evs)
	}
	for i := 0; i < overlap; i++ {
		if evs[i] != s.history[offset+i] {
			return 0, fmt.Errorf("%w: batch event %d differs at sequence %d", ErrConflict, i, offset+i)
		}
	}
	fresh := evs[overlap:]
	if len(fresh) == 0 {
		return 0, nil
	}
	if err := s.app.Check(fresh); err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := events.WriteLog(&buf, fresh); err != nil {
		return 0, err
	}
	if err := s.st.AppendRunEvents(s.name, buf.Bytes()); err != nil {
		// A transient error guarantees no bytes landed (the store failure
		// model), so the session stays consistent and appendable — the
		// client retries the batch at the same offset. Any other error
		// means the append may have landed partially; only a fresh
		// Recover can re-establish what is actually on disk.
		if !store.IsTransient(err) {
			s.broken = true
		}
		return 0, fmt.Errorf("live: appending event log for %q: %w", s.name, err)
	}
	s.logBytes += int64(buf.Len())
	s.app.Apply(fresh)
	s.history = append(s.history, fresh...)
	s.g.events.Add(int64(len(fresh)))
	s.bumpRenumbers()
	return len(fresh), nil
}

func (s *Session) bumpRenumbers() {
	if rn := s.app.Labeler().Renumbers(); rn != s.lastRenumbers {
		s.g.renumbers.Add(int64(rn - s.lastRenumbers))
		s.lastRenumbers = rn
	}
}

// Checkpoint atomically persists the applied event prefix and the log
// bytes it covers to the run's checkpoint meta blob; recovery then
// replays the prefix from that blob and parses the log only past those
// bytes. Recover calls it to fence a torn tail. The serving layer never
// calls it otherwise: the prefix is already in the log, so a periodic
// copy costs writes and saves recovery nothing.
func (s *Session) Checkpoint() error {
	if s.broken {
		return fmt.Errorf("live: session %q needs recovery after a storage failure", s.name)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "ckpt %d %d\n", len(s.history), s.logBytes)
	if err := events.WriteLog(&buf, s.history); err != nil {
		return err
	}
	if err := s.st.Backend().WriteMeta(CheckpointMeta(s.name), buf.Bytes()); err != nil {
		return fmt.Errorf("live: checkpointing %q: %w", s.name, err)
	}
	s.ckptSeq = len(s.history)
	s.ckptLogBytes = s.logBytes
	s.g.checkpoints.Add(1)
	return nil
}

// Recover rebuilds the live session for name from its durable state:
// the event log, read past the bytes a checkpoint covers when there is
// one, after that checkpoint's event prefix. A torn final record — the
// partial line a crashed append can leave — is tolerated: complete
// lines replay (they were validated before ever reaching the log), the
// partial tail is skipped, and a checkpoint is written over it so no
// future recovery parses those bytes (later appends land after them,
// and recovery slices the log at the checkpoint's byte offset, so the
// garbage is never glued into a parsed record). That fence is the only
// checkpoint a stream gets. A run that was never streamed to returns an
// error satisfying errors.Is(err, fs.ErrNotExist).
func Recover(st *store.Store, name string, skel label.Labeling, g *Gauges) (*Session, error) {
	s := NewSession(st, name, skel, g)
	ckpt, err := readCheckpoint(st, name)
	if err != nil {
		return nil, err
	}
	haveCkpt := len(ckpt) > 0
	var prefix []events.Event
	if haveCkpt {
		seq, logBytes, evs, perr := parseCheckpoint(ckpt)
		if perr != nil {
			return nil, fmt.Errorf("live: checkpoint for %q: %w", name, perr)
		}
		if len(evs) != seq {
			return nil, fmt.Errorf("live: checkpoint for %q holds %d events but declares %d", name, len(evs), seq)
		}
		prefix = evs
		s.ckptSeq, s.ckptLogBytes = seq, logBytes
	}

	var data []byte
	switch rc, err := st.ReadRunEvents(name); {
	case err == nil:
		data, err = io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("live: reading event log for %q: %w", name, err)
		}
	case errors.Is(err, fs.ErrNotExist):
		if !haveCkpt {
			return nil, fmt.Errorf("live: no streamed state for run %q: %w", name, fs.ErrNotExist)
		}
	default:
		return nil, err
	}
	if int64(len(data)) < s.ckptLogBytes {
		return nil, fmt.Errorf("live: event log for %q is %d bytes but its checkpoint covers %d", name, len(data), s.ckptLogBytes)
	}
	tail := data[s.ckptLogBytes:]
	clean := 0
	if i := bytes.LastIndexByte(tail, '\n'); i >= 0 {
		clean = i + 1
	}
	evs, err := events.ReadLog(bytes.NewReader(tail[:clean]))
	if err != nil {
		return nil, fmt.Errorf("live: event log for %q: %w", name, err)
	}
	// One check and one apply over the checkpoint's prefix and the log
	// past it: an event's index counts from the prefix's first.
	evs = append(prefix, evs...)
	if err := s.app.Check(evs); err != nil {
		return nil, fmt.Errorf("live: stream state for %q: %w", name, err)
	}
	s.app.Apply(evs)
	s.history = evs
	s.logBytes = s.ckptLogBytes + int64(clean)
	s.g.replays.Add(1)
	s.g.events.Add(int64(len(s.history)))
	s.bumpRenumbers()
	if clean < len(tail) {
		// Torn tail: account the garbage bytes to the session and
		// checkpoint over them, so appends resume past them and no
		// reader ever parses them.
		s.logBytes = int64(len(data))
		if err := s.Checkpoint(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func parseCheckpoint(data []byte) (seq int, logBytes int64, evs []events.Event, err error) {
	i := bytes.IndexByte(data, '\n')
	if i < 0 {
		return 0, 0, nil, errors.New("missing header line")
	}
	if _, err := fmt.Sscanf(string(data[:i]), "ckpt %d %d", &seq, &logBytes); err != nil {
		return 0, 0, nil, fmt.Errorf("malformed header %q: %w", data[:i], err)
	}
	if seq < 0 || logBytes < 0 {
		return 0, 0, nil, fmt.Errorf("negative header values in %q", data[:i])
	}
	evs, err = events.ReadLog(bytes.NewReader(data[i+1:]))
	if err != nil {
		return 0, 0, nil, err
	}
	return seq, logBytes, evs, nil
}

// Finish seals the session into a normal stored run: the copy table is
// materialized into the run and its execution plan, checked against the
// live state (same vertex count, same origin per vertex — guaranteed
// for Emit-convention streams), and persisted through
// store.PutRunSession with that plan, so the run is labeled in the
// paper's with-plan setting (core.LabelRunWithPlan) and no plan is
// reconstructed from the graph. The stored document is the run's
// canonical encoding and answers every query as the same run PUT as one
// document; the label snapshot may number plan nodes differently from a
// PUT's on some specifications. On success the event log and any
// checkpoint are cleaned up best-effort (a failure leaves stale state
// the serving layer's store-wins rule deletes lazily) and the returned
// session is ready to serve queries. An *IncompleteError means the stream does not
// yet describe a complete run and the session stays appendable.
func (s *Session) Finish(scheme label.Scheme) (*store.Session, error) {
	r, p, err := s.materialize()
	if err != nil {
		return nil, err
	}
	sess, err := s.st.PutRunSession(s.name, r, p, nil, scheme)
	if err != nil {
		return nil, err
	}
	// Best-effort cleanup after a durable PutRunSession: stale stream
	// state is reclaimed lazily by the serving layer's store-wins rule.
	_, _ = DeleteState(s.st, s.name)
	return sess, nil
}

// MaterializedRun rebuilds the run graph the streamed execution tree
// describes so far — the same materialization Finish seals — and
// verifies it matches the live vertex numbering (same count, same
// origin per vertex; guaranteed for Emit-convention streams once every
// fork and loop site has its copies). Queries that need actual run
// edges, like regular path queries, evaluate against the result: its
// vertex IDs are exactly the session's, so the live labels answer
// reachability for it. An *IncompleteError means the stream does not
// yet describe a complete run. Callers serialize against appends via
// the session's run lock (the read side suffices; nothing is mutated).
func (s *Session) MaterializedRun() (*run.Run, error) {
	r, _, err := s.materialize()
	return r, err
}

// materialize is MaterializedRun that also returns the run's plan.
func (s *Session) materialize() (*run.Run, *plan.Plan, error) {
	r, p, err := run.MaterializeTable(s.st.Spec(), s.app.Table())
	if err != nil {
		return nil, nil, &IncompleteError{err}
	}
	origins := s.app.Namer().Origins()
	if r.NumVertices() != len(origins) {
		return nil, nil, &IncompleteError{fmt.Errorf("materialization yields %d vertices, the stream recorded %d module executions", r.NumVertices(), len(origins))}
	}
	for v, o := range origins {
		if r.Origin[v] != o {
			return nil, nil, &IncompleteError{fmt.Errorf("exec order diverges from the materialization order at vertex %d (streams must follow the Emit convention)", v)}
		}
	}
	return r, p, nil
}

// Namer names the live run's vertices and resolves their names: the
// names the finished run gets (the serving layer adds the numeric-ID
// fallback for every run alike).
func (s *Session) Namer() *run.Namer { return s.app.Namer() }

// Reachable answers one reachability query on the live labels.
func (s *Session) Reachable(u, v dag.VertexID) bool { return s.app.Labeler().Reachable(u, v) }

// ByContext reports whether Reachable(u, v) was decided by the context
// comparison alone (Algorithm 3's fast path), mirroring the stored
// labeling's AnsweredByContext.
func (s *Session) ByContext(u, v dag.VertexID) bool {
	l := s.app.Labeler()
	a, b := l.CurrentLabel(u), l.CurrentLabel(v)
	return (a.K2 < b.K2) != (a.K3 < b.K3)
}

// AppendCone appends v's lineage cone in ascending vertex ID, by label
// scan: the vertices reaching v when up, those v reaches otherwise. It is
// the live counterpart of core.Labeling.AppendCone.
func (s *Session) AppendCone(dst []dag.VertexID, v dag.VertexID, up bool) []dag.VertexID {
	l := s.app.Labeler()
	for u := dag.VertexID(0); int(u) < l.NumVertices(); u++ {
		if u != v && (up && l.Reachable(u, v) || !up && l.Reachable(v, u)) {
			dst = append(dst, u)
		}
	}
	return dst
}
