// Package store persists labeled provenance: the specification, each
// run's graph and data items (XML), and each run's reachability labels
// (compact binary snapshots). It is the provenance database the paper
// targets — "data can be labeled and stored in a database along with its
// label" — and supports opening a store and answering provenance queries
// without relabeling anything.
//
// # Architecture
//
// Store is backend-agnostic logic (run validation, labeling, snapshot
// binding, session construction) over a blob-level Backend interface.
// Three backends ship with the package:
//
//   - fs: one directory on disk (spec.xml, runs/<name>.xml,
//     runs/<name>.skl), with atomic temp-file+rename writes
//   - mem: everything in RAM, for tests and ephemeral serving
//   - shard: runs hash-routed across N child backends, so one store
//     spans many directories or disks
//
// OpenURL opens any of them from a URL ("fs://dir", a bare path,
// "mem://dir" to preload a directory into RAM, "shard://a,b,c").
//
// # Concurrency
//
// A Store is safe for concurrent use: any number of goroutines may call
// Spec, SpecName, Runs, OpenRun and Stat concurrently, including
// concurrently with PutRun calls for distinct run names (the internal
// skeleton-labeling cache is mutex-guarded; backends are concurrency-
// safe by contract). Concurrent PutRun calls for the same name race on
// the underlying blobs and must be serialized by the caller.
//
// A Session's labels are immutable once OpenRun returns and answer
// queries without mutating shared state (search-based skeleton schemes
// draw per-query scratch from an internal pool). Its run document is
// decoded at most once: the first Document or DataView call decodes the
// bytes OpenRun read, under a sync.Once, and every concurrent or later
// caller sees that one result; the bytes are dropped after the decode.
// So one Session may serve any number of concurrent readers. This
// contract is what internal/server's session cache relies on and is
// enforced by the -race tests in this package and internal/server.
package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"slices"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/label"
	"repro/internal/provdata"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/xmlio"
)

// Store is a provenance store for one specification over some Backend.
type Store struct {
	backend  Backend
	spec     *spec.Spec
	specName string

	// skels caches built specification labelings by scheme name, so bulk
	// PutRun/OpenRun loops label the (small but not free) specification
	// once per scheme instead of once per call. Labelings are safe for
	// concurrent readers, so cached entries are shared across sessions.
	mu    sync.Mutex
	skels map[string]label.Labeling // guarded by mu
}

// New initializes a store over the backend for the specification,
// persisting the spec document through it.
func New(b Backend, s *spec.Spec, name string) (*Store, error) {
	var buf bytes.Buffer
	if err := xmlio.EncodeSpec(&buf, s, name); err != nil {
		return nil, err
	}
	if err := b.WriteSpec(buf.Bytes()); err != nil {
		return nil, err
	}
	return newStore(b, s, name), nil
}

// OpenBackend loads an existing store from the backend.
func OpenBackend(b Backend) (*Store, error) {
	rc, err := b.ReadSpec()
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	s, name, err := xmlio.DecodeSpec(rc)
	if err != nil {
		return nil, err
	}
	return newStore(b, s, name), nil
}

func newStore(b Backend, s *spec.Spec, name string) *Store {
	return &Store{backend: b, spec: s, specName: name, skels: make(map[string]label.Labeling)}
}

// Create initializes an fs-backed store directory for the specification.
func Create(dir string, s *spec.Spec, name string) (*Store, error) {
	return New(NewFSBackend(dir), s, name)
}

// Open loads an existing fs-backed store.
func Open(dir string) (*Store, error) {
	return OpenBackend(NewFSBackend(dir))
}

// NewMem returns a store over a fresh in-memory backend.
func NewMem(s *spec.Spec, name string) (*Store, error) {
	return New(NewMemBackend(), s, name)
}

// CreateSharded initializes a store sharded across fs-backed child
// directories, replicating the spec to each so every shard is also
// independently openable.
func CreateSharded(dirs []string, s *spec.Spec, name string) (*Store, error) {
	b, err := newShardFS(dirs)
	if err != nil {
		return nil, err
	}
	return New(b, s, name)
}

// OpenSharded loads an existing store sharded across fs-backed child
// directories; the directory list must match the one it was created
// with (routing hashes the run name over the shard count and order).
func OpenSharded(dirs []string) (*Store, error) {
	b, err := newShardFS(dirs)
	if err != nil {
		return nil, err
	}
	return OpenBackend(b)
}

func newShardFS(dirs []string) (Backend, error) {
	children := make([]Backend, len(dirs))
	for i, d := range dirs {
		children[i] = NewFSBackend(d)
	}
	return NewShardBackend(children...)
}

// Spec returns the store's specification.
func (st *Store) Spec() *spec.Spec { return st.spec }

// SpecName returns the stored specification's name.
func (st *Store) SpecName() string { return st.specName }

// Backend returns the store's storage substrate.
func (st *Store) Backend() Backend { return st.backend }

// Stat describes the store's backend for monitoring.
func (st *Store) Stat() Stats { return st.backend.Stat() }

// Close releases the backend's resources.
func (st *Store) Close() error { return st.backend.Close() }

// Skeleton returns the store's cached specification labeling for the
// scheme, building it on first use — the same labeling PutRun and
// OpenRun bind, exported so layers labeling outside the store (the
// streaming ingest path's online labeler) share one skeleton per
// scheme instead of rebuilding it.
func (st *Store) Skeleton(scheme label.Scheme) (label.Labeling, error) {
	return st.skeleton(scheme)
}

// skeleton returns the cached specification labeling for the scheme,
// building it on first use.
func (st *Store) skeleton(scheme label.Scheme) (label.Labeling, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if skel, ok := st.skels[scheme.Name()]; ok {
		return skel, nil
	}
	skel, err := scheme.Build(st.spec.Graph)
	if err != nil {
		return nil, err
	}
	st.skels[scheme.Name()] = skel
	return skel, nil
}

// PutRun labels the run (with the given scheme) and persists graph, data
// items and label snapshot under the given run name. Putting an existing
// name overwrites the stored run, but overwrite is not atomic across
// the document/labels pair: concurrent PutRun or OpenRun calls for the
// *same* name race and must be serialized by the caller — the serving
// layer's ingest endpoint holds a per-run-name reader/writer lock
// across its writes and loads for exactly this reason. Distinct names
// never interfere.
func (st *Store) PutRun(name string, r *run.Run, ann *provdata.Annotation, scheme label.Scheme) error {
	_, _, _, err := st.putRun(name, r, ann, scheme)
	return err
}

// PutRunSession is PutRun plus a ready-to-query Session assembled from
// the same in-memory labeling — the ingest path's fast lane: the caller
// gets exactly what OpenRun would return without re-reading and
// re-decoding the blobs that were just written (the differential tests
// pin that a fresh labeling and a snapshot rebound to the skeleton
// answer identically).
func (st *Store) PutRunSession(name string, r *run.Run, ann *provdata.Annotation, scheme label.Scheme) (*Session, error) {
	stored, l, snapBytes, err := st.putRun(name, r, ann, scheme)
	if err != nil {
		return nil, err
	}
	var dv *provdata.Labeling
	if ann != nil {
		if dv, err = provdata.LabelData(ann, l); err != nil {
			return nil, err
		}
	}
	sess := &Session{Labels: l, SnapshotVersion: core.SnapshotV2, SnapshotBytes: snapBytes}
	sess.once.Do(func() { sess.run, sess.data, sess.dataView = stored, ann, dv })
	return sess, nil
}

// putRun is the shared write path: validate, label, encode, persist.
// It returns the (possibly spec-normalized) run, its labeling, and the
// stored snapshot's size.
func (st *Store) putRun(name string, r *run.Run, ann *provdata.Annotation, scheme label.Scheme) (*run.Run, *core.Labeling, int, error) {
	if err := ValidRunName(name); err != nil {
		return nil, nil, 0, err
	}
	if r.Spec != st.spec {
		// Allow structurally equal specs (e.g. reopened stores) as long
		// as the run validates against the store's spec.
		r = &run.Run{Spec: st.spec, Graph: r.Graph, Origin: r.Origin}
	}
	if err := r.Validate(); err != nil {
		return nil, nil, 0, err
	}
	skel, err := st.skeleton(scheme)
	if err != nil {
		return nil, nil, 0, err
	}
	l, err := core.LabelRun(r, skel)
	if err != nil {
		return nil, nil, 0, err
	}
	var runDoc bytes.Buffer
	if err := xmlio.EncodeRun(&runDoc, r, ann, st.specName); err != nil {
		return nil, nil, 0, err
	}
	var labels bytes.Buffer
	if _, err := l.WriteTo(&labels); err != nil {
		return nil, nil, 0, err
	}
	if err := st.backend.WriteRun(name, runDoc.Bytes(), labels.Bytes()); err != nil {
		return nil, nil, 0, err
	}
	return r, l, labels.Len(), nil
}

// Runs lists the stored run names, sorted.
func (st *Store) Runs() ([]string, error) {
	return st.backend.ListRuns()
}

// DeleteRun removes the named run's document and label snapshot from
// the backend. Deleting a name that is not stored returns an error
// satisfying errors.Is(err, fs.ErrNotExist). Like PutRun, a delete
// concurrent with reads or writes of the *same* name races and must be
// serialized by the caller — the serving layer holds its per-run-name
// write lock across the backend delete and its cache invalidation;
// distinct names never interfere.
func (st *Store) DeleteRun(name string) error {
	if err := ValidRunName(name); err != nil {
		return err
	}
	return st.backend.DeleteRun(name)
}

// AppendRunEvents durably appends rendered event-log bytes to the named
// run's event log — the streaming ingest write-ahead step: the serving
// layer appends each accepted batch here before applying it, so crash
// recovery can rebuild the live session. Same-name appends race and are
// the caller's to serialize, like every same-name write in this package.
func (st *Store) AppendRunEvents(name string, data []byte) error {
	if err := ValidRunName(name); err != nil {
		return err
	}
	return st.backend.AppendEventLog(name, data)
}

// ReadRunEvents streams the named run's event log; a run never streamed
// to returns an error satisfying errors.Is(err, fs.ErrNotExist).
func (st *Store) ReadRunEvents(name string) (io.ReadCloser, error) {
	if err := ValidRunName(name); err != nil {
		return nil, err
	}
	return st.backend.ReadEventLog(name)
}

// DeleteRunEvents removes the named run's event log; removing a log
// that does not exist is a successful no-op (log deletion is cleanup
// after a finish or a run delete).
func (st *Store) DeleteRunEvents(name string) error {
	if err := ValidRunName(name); err != nil {
		return err
	}
	return st.backend.DeleteEventLog(name)
}

// Session is a loaded run ready for querying: stored labels bound to the
// specification's skeleton labeling, plus the run document (graph and
// data items), decoded on first use. Reachability and lineage need only
// Labels; path queries and run statistics need Document.
type Session struct {
	Labels *core.Labeling
	// SnapshotVersion is the wire format the run's stored label snapshot
	// was encoded with (SKL1 or SKL2); stores written by older versions
	// keep loading transparently.
	SnapshotVersion core.SnapshotVersion
	// SnapshotBytes is the stored label snapshot's size in bytes.
	SnapshotBytes int

	spec *spec.Spec
	once sync.Once
	// doc holds the stored run document until once decodes it.
	doc      []byte
	run      *run.Run
	data     *provdata.Annotation
	dataView *provdata.Labeling
	docErr   error
}

// Document returns the run graph and its data items (nil when the run
// has none). The first call decodes the document OpenRun read and
// checks it against the labels; every call returns that one result.
// A document that does not decode or does not match the labels (a torn
// pair written by another process) is an error, never a wrong run.
func (s *Session) Document() (*run.Run, *provdata.Annotation, error) {
	s.once.Do(s.decode)
	return s.run, s.data, s.docErr
}

// DataView returns the data items labeled for provenance queries (nil
// when the run has none), built in the same step as Document.
func (s *Session) DataView() (*provdata.Labeling, error) {
	s.once.Do(s.decode)
	return s.dataView, s.docErr
}

// decode is the once-only body behind Document.
func (s *Session) decode() {
	doc := s.doc
	s.doc = nil
	r, ann, err := xmlio.DecodeRunBytes(doc, s.spec)
	if err != nil {
		s.docErr = err
		return
	}
	if n := s.Labels.NumVertices(); r.NumVertices() != n {
		s.docErr = fmt.Errorf("store: snapshot covers %d vertices, run has %d", n, r.NumVertices())
		return
	}
	if lo, ro := s.Labels.Origins(), r.Origin[:r.NumVertices()]; !slices.Equal(lo, ro) {
		v := 0
		for lo[v] == ro[v] {
			v++
		}
		s.docErr = fmt.Errorf("store: snapshot gives vertex %d origin %d, run has %d", v, lo[v], ro[v])
		return
	}
	var dv *provdata.Labeling
	if ann != nil {
		if dv, err = provdata.LabelData(ann, s.Labels); err != nil {
			s.docErr = err
			return
		}
	}
	s.run, s.data, s.dataView = r, ann, dv
}

// OpenRun loads one run's labels for querying. The scheme's skeleton
// labeling of the (small) specification comes from the store's cache;
// the run labels come from the stored snapshot and are not recomputed.
// Both blobs are read here, so a caller serializing OpenRun against
// same-name writes gets a consistent pair; the run document is held as
// bytes and decoded only when Document is first called.
func (st *Store) OpenRun(name string, scheme label.Scheme) (*Session, error) {
	if err := ValidRunName(name); err != nil {
		return nil, err
	}
	rf, err := st.backend.ReadRun(name)
	if err != nil {
		return nil, err
	}
	doc, err := xmlio.ReadRunDocument(rf)
	rf.Close()
	if err != nil {
		return nil, err
	}
	lf, err := st.backend.ReadLabels(name)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(lf)
	lf.Close()
	if err != nil {
		return nil, err
	}
	snap, err := core.DecodeSnapshot(raw)
	if err != nil {
		return nil, err
	}
	if snap.NumSpec != st.spec.NumVertices() {
		return nil, fmt.Errorf("store: snapshot labels a %d-vertex specification, the store's has %d", snap.NumSpec, st.spec.NumVertices())
	}
	skel, err := st.skeleton(scheme)
	if err != nil {
		return nil, err
	}
	l, err := snap.Bind(skel)
	if err != nil {
		return nil, err
	}
	return &Session{
		Labels: l, SnapshotVersion: snap.Version, SnapshotBytes: len(raw),
		spec: st.spec, doc: doc,
	}, nil
}

// HotListMeta is the meta blob holding the serving layer's hot-session
// list: the run names that were resident in the query server's session
// cache when it shut down, one per line, most recently used first. A
// warm restart preloads these before accepting traffic.
const HotListMeta = ".hot"

// WriteHotList persists the hot-session list (run names, most recently
// used first) so a restarted server can preload them. Invalid names are
// rejected up front; names that no longer exist in the store (runs
// deleted while their session was still cached) are pruned rather than
// persisted — a .hot blob must never keep naming a deleted run, so a
// warm restart spends its startup loads only on runs that can actually
// load. An empty list (or one pruned empty) is stored as an empty blob.
func (st *Store) WriteHotList(names []string) error {
	for _, n := range names {
		if err := ValidRunName(n); err != nil {
			return err
		}
	}
	stored, err := st.backend.ListRuns()
	if err != nil {
		return err
	}
	exists := make(map[string]bool, len(stored))
	for _, n := range stored {
		exists[n] = true
	}
	kept := make([]string, 0, len(names))
	for _, n := range names {
		if exists[n] {
			kept = append(kept, n)
		}
	}
	return st.backend.WriteMeta(HotListMeta, []byte(strings.Join(kept, "\n")))
}

// ReadHotList returns the stored hot-session list, most recently used
// first. A store that never saved one returns an empty list, not an
// error. Names that are no longer valid are dropped rather than
// surfaced: the list is advisory (a stale entry just means one cold
// load), never a reason to refuse startup.
func (st *Store) ReadHotList() ([]string, error) {
	rc, err := st.backend.ReadMeta(HotListMeta)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" {
			continue
		}
		if ValidRunName(line) == nil {
			names = append(names, line)
		}
	}
	return names, nil
}

// ValidMetaName reports whether name is usable as a backend meta blob
// name: a leading dot followed by one or more characters from
// [A-Za-z0-9._-], except ".." — with separators banned that is the one
// remaining path special, and the fs backend joins meta names onto its
// root directory. The mandatory dot prefix is exactly what ValidRunName
// forbids, so meta names and run names can never collide on any backend.
func ValidMetaName(name string) error {
	if len(name) < 2 || name[0] != '.' || name == ".." {
		return fmt.Errorf("store: invalid meta name %q", name)
	}
	for i := 1; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("store: invalid meta name %q", name)
		}
	}
	return nil
}

// ValidRunName reports whether name is usable as a stored run name:
// one or more characters from [A-Za-z0-9._-], not starting with ".".
// The character class rules out separators, whitespace and control
// characters on every backend, so a run name is always safe to embed in
// a file path, a URL or a shard key; banning the leading dot covers the
// path specials "." and ".." and reserves the dot-prefixed namespace
// for the fs backend's temp files. Callers accepting run names from
// untrusted input (e.g. the query server) can reject bad names up front
// instead of surfacing them as store errors.
func ValidRunName(name string) error {
	if name == "" || name[0] == '.' {
		return fmt.Errorf("store: invalid run name %q", name)
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("store: invalid run name %q", name)
		}
	}
	return nil
}
