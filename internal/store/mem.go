package store

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"sync"
)

// memBackend keeps every blob in RAM. It serves three roles: the
// fastest substrate for tests and benchmarks, an ephemeral store for
// serving without touching disk (preload an fs store via "mem://<dir>"
// and every miss is a memory read), and the reference implementation of
// the Backend contract for the conformance suite.
type memBackend struct {
	mu     sync.RWMutex
	spec   []byte
	runs   map[string]memRun
	metas  map[string][]byte
	evlogs map[string][]byte
	closed bool
}

type memRun struct {
	doc, labels []byte
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() Backend {
	return &memBackend{
		runs:   make(map[string]memRun),
		metas:  make(map[string][]byte),
		evlogs: make(map[string][]byte),
	}
}

func (b *memBackend) ReadSpec() (io.ReadCloser, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.spec == nil {
		return nil, fmt.Errorf("store: mem spec: %w", fs.ErrNotExist)
	}
	return io.NopCloser(bytes.NewReader(b.spec)), nil
}

func (b *memBackend) WriteSpec(data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("store: mem backend is closed")
	}
	b.spec = append([]byte(nil), data...)
	return nil
}

func (b *memBackend) ReadRun(name string) (io.ReadCloser, error) {
	return b.readBlob(name, func(r memRun) []byte { return r.doc })
}

func (b *memBackend) ReadLabels(name string) (io.ReadCloser, error) {
	return b.readBlob(name, func(r memRun) []byte { return r.labels })
}

func (b *memBackend) readBlob(name string, pick func(memRun) []byte) (io.ReadCloser, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	r, ok := b.runs[name]
	if !ok {
		return nil, fmt.Errorf("store: mem run %q: %w", name, fs.ErrNotExist)
	}
	// Stored blobs are never mutated after WriteRun, so readers can share
	// the slice without copying.
	data := pick(r)
	blob := &memBlob{data: data}
	blob.Reset(data)
	return blob, nil
}

// memBlob reads one stored run blob and offers it whole through Bytes,
// the stored slice itself, so OpenRun borrows it instead of copying.
// An overwrite stores a new slice and a delete drops the map entry;
// neither writes into the old one, so a borrower's bytes stay intact.
type memBlob struct {
	bytes.Reader
	data []byte
}

// Bytes returns the whole blob, which the caller must not modify.
func (b *memBlob) Bytes() []byte { return b.data }

func (*memBlob) Close() error { return nil }

func (b *memBackend) WriteRun(name string, runDoc, labels []byte) error {
	// Copy both blobs before taking the lock: the caller may reuse its
	// buffers, and the map swap below is what makes the write atomic —
	// readers see the old pair or the new pair, never a mix.
	r := memRun{
		doc:    append([]byte(nil), runDoc...),
		labels: append([]byte(nil), labels...),
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("store: mem backend is closed")
	}
	b.runs[name] = r
	return nil
}

// DeleteRun removes the pair in one map delete — atomic by
// construction, the mirror of WriteRun's map swap: readers see the
// complete pair or neither blob, never a document without labels.
func (b *memBackend) DeleteRun(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("store: mem backend is closed")
	}
	if _, ok := b.runs[name]; !ok {
		return fmt.Errorf("store: mem run %q: %w", name, fs.ErrNotExist)
	}
	delete(b.runs, name)
	return nil
}

// Meta blobs live in their own map: dot-prefixed names are invalid run
// names, so metas and runs stay disjoint like the fs layout's root-dir
// files versus runs/.
func (b *memBackend) ReadMeta(name string) (io.ReadCloser, error) {
	if err := ValidMetaName(name); err != nil {
		return nil, err
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	data, ok := b.metas[name]
	if !ok {
		return nil, fmt.Errorf("store: mem meta %q: %w", name, fs.ErrNotExist)
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

func (b *memBackend) WriteMeta(name string, data []byte) error {
	if err := ValidMetaName(name); err != nil {
		return err
	}
	cp := append([]byte(nil), data...)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("store: mem backend is closed")
	}
	b.metas[name] = cp
	return nil
}

func (b *memBackend) DeleteMeta(name string) error {
	if err := ValidMetaName(name); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("store: mem backend is closed")
	}
	delete(b.metas, name)
	return nil
}

// Event logs live in their own map, independent of the run pair and
// invisible to ListRuns. Appends grow the stored slice under the write
// lock; readers capture the slice at its current length, and growth
// either reallocates or writes past that length, so a reader never
// observes bytes from an append that started after its ReadEventLog.
func (b *memBackend) AppendEventLog(name string, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("store: mem backend is closed")
	}
	b.evlogs[name] = append(b.evlogs[name], data...)
	return nil
}

func (b *memBackend) ReadEventLog(name string) (io.ReadCloser, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	log, ok := b.evlogs[name]
	if !ok {
		return nil, fmt.Errorf("store: mem event log %q: %w", name, fs.ErrNotExist)
	}
	return io.NopCloser(bytes.NewReader(log)), nil
}

func (b *memBackend) ListEventLogs() ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.evlogs))
	for name := range b.evlogs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

func (b *memBackend) DeleteEventLog(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return fmt.Errorf("store: mem backend is closed")
	}
	delete(b.evlogs, name)
	return nil
}

func (b *memBackend) ListRuns() ([]string, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	out := make([]string, 0, len(b.runs))
	for name := range b.runs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}

func (b *memBackend) Stat() Stats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return Stats{Kind: "mem", Runs: len(b.runs)}
}

func (b *memBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.spec = nil
	b.runs = make(map[string]memRun)
	b.metas = make(map[string][]byte)
	b.evlogs = make(map[string][]byte)
	return nil
}
