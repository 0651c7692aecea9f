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
// Two backends ship with the package:
//
//   - fs: one directory on disk (spec.xml, runs/<name>.xml,
//     runs/<name>.skl), with atomic temp-file+rename writes
//   - mem: everything in RAM, for tests and ephemeral serving
//
// OpenURL opens either from a URL ("fs://dir", a bare path, or
// "mem://dir" to preload a directory into RAM).
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
// decoded at most once: the first Document call decodes the bytes
// OpenRun read (borrowed, not copied, from a backend that holds them
// resident), under a sync.Once, and every concurrent or later caller
// sees that one result; the bytes are dropped after the decode.
// So one Session may serve any number of concurrent readers. This
// contract is what internal/server's session cache relies on and is
// enforced by the -race tests in this package and internal/server.
package store

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/label"
	"repro/internal/plan"
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
// items and label snapshot under the given run name; the document
// stored is the run's canonical encoding (xmlio.EncodeRun). Putting an
// existing name overwrites the stored run, but overwrite is not atomic
// across the document/labels pair: concurrent writes or OpenRun calls
// for the *same* name race and must be serialized by the caller — the
// serving layer's ingest endpoint holds a per-run-name reader/writer
// lock across its writes and loads for exactly this reason. Distinct
// names never interfere. PutRun refuses data items with empty names, as
// PutRunSession does.
func (st *Store) PutRun(name string, r *run.Run, ann *provdata.Annotation, scheme label.Scheme) error {
	_, err := st.PutRunSession(name, r, nil, ann, scheme)
	return err
}

// PutRunSession is PutRun plus a ready-to-query Session assembled from
// the same in-memory labeling: the caller gets exactly what OpenRun
// would return without re-reading and re-decoding the blobs that were
// just written (the differential tests pin that a fresh labeling and a
// snapshot rebound to the skeleton answer identically). It is the write
// path for runs that exist only in memory, such as a finished stream:
// the run is validated once here and stored in its canonical encoding.
//
// p is the run's execution plan when the caller knows it, as a stream's
// /finish does from the copies its events started: the run is then
// labeled with p (core.LabelRunWithPlan, the paper's "with execution
// plan & context" setting) instead of reconstructing the plan from the
// graph. A nil p, or one over another specification than the store's,
// falls back to plan.Construct.
//
// The canonical encoding has no place for a data item with an empty
// name, so an annotation holding one is refused as an *InvalidRunError,
// before anything is written: the stored run must have every item the
// returned session has.
func (st *Store) PutRunSession(name string, r *run.Run, p *plan.Plan, ann *provdata.Annotation, scheme label.Scheme) (*Session, error) {
	if err := ValidRunName(name); err != nil {
		return nil, err
	}
	if r.Spec != st.spec {
		// Allow structurally equal specs (e.g. reopened stores) as long
		// as the run validates against the store's spec.
		r = &run.Run{Spec: st.spec, Graph: r.Graph, Origin: r.Origin}
	}
	if err := r.Validate(); err != nil {
		return nil, &InvalidRunError{err}
	}
	if ann != nil {
		if err := ann.Validate(); err != nil {
			return nil, &InvalidRunError{err}
		}
		for _, it := range ann.Items {
			if it.Name == "" {
				return nil, &InvalidRunError{fmt.Errorf("store: data item %d has an empty name, which the stored document cannot hold", it.ID)}
			}
		}
	}
	if p != nil && p.Spec != st.spec {
		p = nil
	}
	// The canonical document is appended into one pooled buffer and
	// written from there: the backend does not keep it.
	bp := xmlio.GetBuffer()
	*bp = xmlio.AppendRun(*bp, r, ann, st.specName)
	defer xmlio.PutBuffer(bp)
	return st.putRun(name, r, p, ann, *bp, scheme)
}

// PutRunDocument is PutRunSession for a run that arrives as a document:
// it decodes doc against the store's specification (Document.Decode,
// which validates the run) and stores doc's bytes, as given, with the
// label snapshot. The decode and the write both read the bytes in the
// decoder's buffer, which the backend copies or writes out and does not
// keep; the caller releases doc afterwards. Data items with empty names
// are kept: the stored bytes hold them.
func (st *Store) PutRunDocument(name string, doc xmlio.Document, scheme label.Scheme) (*Session, error) {
	if err := ValidRunName(name); err != nil {
		return nil, err
	}
	r, ann, err := doc.Decode(st.spec)
	if err != nil {
		return nil, &InvalidRunError{err}
	}
	return st.putRun(name, r, nil, ann, doc.Bytes(), scheme)
}

// putRun is the write path's shared tail, for a run validated against
// the store's spec and a document that decodes to it: label the run,
// with its plan p when the caller has one over the store's spec and by
// plan.Construct otherwise, persist the document and the label
// snapshot, and return the session over them. Both write methods report
// input that is no run of the spec as an *InvalidRunError, before
// anything is written.
func (st *Store) putRun(name string, r *run.Run, p *plan.Plan, ann *provdata.Annotation, doc []byte, scheme label.Scheme) (*Session, error) {
	skel, err := st.skeleton(scheme)
	if err != nil {
		return nil, err
	}
	var l *core.Labeling
	if p != nil {
		l, err = core.LabelRunWithPlan(r, p, skel)
	} else {
		l, err = core.LabelRun(r, skel)
	}
	if err != nil {
		return nil, &InvalidRunError{err}
	}
	bp := xmlio.GetBuffer()
	*bp = l.AppendSnapshot(*bp)
	defer xmlio.PutBuffer(bp)
	if err := st.backend.WriteRun(name, doc, *bp); err != nil {
		return nil, err
	}
	sess := &Session{Labels: l, SnapshotVersion: core.SnapshotV2, SnapshotBytes: len(*bp)}
	sess.once.Do(func() { sess.run, sess.data = r, ann })
	return sess, nil
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
	// doc holds the stored run document until once decodes it. On a
	// backend that keeps blobs resident it is the backend's own slice,
	// borrowed (see "Resident blobs" on Backend): it is only read.
	doc    []byte
	run    *run.Run
	data   *provdata.Annotation
	docErr error
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
	s.run, s.data = r, ann
}

// OpenRun loads one run's labels for querying. The scheme's skeleton
// labeling of the (small) specification comes from the store's cache;
// the run labels come from the stored snapshot and are not recomputed.
// Both blobs are read here, through ReadBlob, so a caller serializing
// OpenRun against same-name writes gets a consistent pair. Neither is
// copied when the backend holds it resident: the snapshot is decoded
// straight from the stored bytes, and the session borrows the stored
// document, which it decodes only when Document is first called.
func (st *Store) OpenRun(name string, scheme label.Scheme) (*Session, error) {
	if err := ValidRunName(name); err != nil {
		return nil, err
	}
	rf, err := st.backend.ReadRun(name)
	if err != nil {
		return nil, err
	}
	doc, err := ReadBlob(rf)
	if err != nil {
		// A document read that breaks keeps the run decoder's error
		// prefix, as when the decoder reads the stream itself.
		return nil, fmt.Errorf("xmlio: decode run: %w", err)
	}
	lf, err := st.backend.ReadLabels(name)
	if err != nil {
		return nil, err
	}
	raw, err := ReadBlob(lf)
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

// ReadBlob reads a whole blob that a Backend read method opened, then
// closes it, and copies nothing it can avoid. A reader that offers its
// bytes resident (see "Resident blobs" on Backend) lends them: the
// result is the backend's own slice, which the caller must not modify.
// A reader that knows its size (an *os.File, through Stat) is read into
// one buffer of that size plus the room bytes.Buffer wants for the read
// that meets EOF. Any other reader goes through io.ReadAll.
func ReadBlob(rc io.ReadCloser) ([]byte, error) {
	defer rc.Close()
	switch r := rc.(type) {
	case interface{ Bytes() []byte }:
		return r.Bytes(), nil
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			buf := bytes.NewBuffer(make([]byte, 0, fi.Size()+bytes.MinRead))
			if _, err := buf.ReadFrom(rc); err != nil {
				return nil, err
			}
			return buf.Bytes(), nil
		}
	}
	return io.ReadAll(rc)
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
// a file path or a URL; banning the leading dot covers the
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
