package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"
)

// OpenURL opens an existing store from a URL-style locator:
//
//	fs://dir          one directory on disk (a bare path means the same)
//	mem://dir         preload the fs store at dir into RAM and serve from
//	                  memory (ephemeral: writes are lost on exit)
//
// faultinject.OpenURL adds "fault", a fault-injecting wrapper around
// any inner URL (fault://rate=0.05,seed=7/fs://dir).
//
// A bare "mem://" or "mem:" cannot be opened — an empty memory store has no
// specification; build one in-process with NewMem instead.
func OpenURL(rawurl string) (*Store, error) {
	b, err := OpenBackendURL(rawurl)
	if err != nil {
		return nil, err
	}
	st, err := OpenBackend(b)
	if err != nil {
		b.Close()
		return nil, err
	}
	return st, nil
}

// OpenBackendURL opens just the blob-level backend a store URL names,
// without loading the store's specification — the composition point for
// wrapper backends: open the inner backend from its URL, wrap it
// (WithRetry, a fault injector), then OpenBackend the result.
func OpenBackendURL(rawurl string) (Backend, error) {
	scheme, rest, ok := strings.Cut(rawurl, "://")
	if !ok {
		switch rawurl {
		case "":
			return nil, fmt.Errorf("store: empty store URL")
		case "mem:":
			return nil, errEmptyMem
		}
		return NewFSBackend(rawurl), nil
	}
	switch scheme {
	case "fs":
		if rest == "" {
			return nil, fmt.Errorf("store: fs:// needs a directory")
		}
		return NewFSBackend(rest), nil
	case "mem":
		if rest == "" {
			return nil, errEmptyMem
		}
		mem := NewMemBackend()
		if err := Copy(mem, NewFSBackend(rest)); err != nil {
			return nil, err
		}
		return mem, nil
	default:
		return nil, fmt.Errorf("store: unknown store URL scheme %q (want fs or mem)", scheme)
	}
}

// errEmptyMem refuses "mem://" and "mem:", which name no directory to
// preload.
var errEmptyMem = errors.New("store: mem:// starts empty and has no spec to open; use mem://<dir> to preload a directory, or build one in-process with NewMem")

// Copy replicates src's spec and every run into dst. It is the
// workhorse behind "mem://<dir>" preloading and works between any two
// backends — e.g. snapshotting an in-memory store to disk. Runs
// deleted from src between the listing and their read (a retention
// sweep on a live store) are skipped, not errors: the copy lands
// without them, exactly as if it had started a moment later.
func Copy(dst, src Backend) error {
	spec, err := readAll(src.ReadSpec())
	if err != nil {
		return err
	}
	if err := dst.WriteSpec(spec); err != nil {
		return err
	}
	names, err := src.ListRuns()
	if err != nil {
		return err
	}
	for _, name := range names {
		doc, err := readAll(src.ReadRun(name))
		if errors.Is(err, fs.ErrNotExist) {
			// Deleted between the listing and the read (a retention sweep
			// on a live store): the run is simply not part of the copy.
			continue
		}
		if err != nil {
			return err
		}
		labels, err := readAll(src.ReadLabels(name))
		if errors.Is(err, fs.ErrNotExist) {
			// The delete removes the document first, so a vanished .skl
			// means the same mid-copy delete caught between our two reads.
			continue
		}
		if err != nil {
			return err
		}
		if err := dst.WriteRun(name, doc, labels); err != nil {
			return err
		}
	}
	return nil
}

func readAll(rc io.ReadCloser, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return ReadBlob(rc)
}
