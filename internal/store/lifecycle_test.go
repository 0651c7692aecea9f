package store_test

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

// plantOrphan fakes the crash the fs backend documents: a .skl that was
// durably renamed into place with no sibling .xml (power loss between
// WriteRun's two renames, or between DeleteRun's two removes).
func plantOrphan(t *testing.T, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, "runs", name+".skl")
	if err := os.WriteFile(path, []byte("orphaned snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFSOrphanSweepOnOpen: opening a store collects label snapshots
// with no sibling run document — the debris is gone before the store
// serves anything, and intact runs are untouched.
func TestFSOrphanSweepOnOpen(t *testing.T) {
	dir := t.TempDir()
	s := spec.PaperSpec()
	st, err := store.Create(dir, s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(1)), 80)
	if err := st.PutRun("intact", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	orphan := plantOrphan(t, dir, "crashed")

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("orphaned snapshot survived open: %v", err)
	}
	// The intact run still has both blobs and still serves.
	if _, err := os.Stat(filepath.Join(dir, "runs", "intact.skl")); err != nil {
		t.Fatalf("sweep collected a live run's snapshot: %v", err)
	}
	sess, err := st2.OpenRun("intact", label.TCM{})
	if err != nil {
		t.Fatalf("intact run after sweep: %v", err)
	}
	if document(t, sess).NumVertices() != r.NumVertices() {
		t.Fatal("intact run changed size after sweep")
	}
	if names, err := st2.Runs(); err != nil || fmt.Sprint(names) != "[intact]" {
		t.Fatalf("Runs after sweep = %v, %v", names, err)
	}
}

// TestFSOrphanSweepOnDelete: DeleteRun collects crash debris left by
// earlier interrupted writes, so a retention sweep doubles as garbage
// collection.
func TestFSOrphanSweepOnDelete(t *testing.T) {
	dir := t.TempDir()
	s := spec.PaperSpec()
	st, err := store.Create(dir, s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(2)), 80)
	for _, name := range []string{"stay", "go"} {
		if err := st.PutRun(name, r, nil, label.TCM{}); err != nil {
			t.Fatal(err)
		}
	}
	orphan := plantOrphan(t, dir, "debris")

	if err := st.DeleteRun("go"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("orphaned snapshot survived DeleteRun: %v", err)
	}
	for _, gone := range []string{"go.xml", "go.skl"} {
		if _, err := os.Stat(filepath.Join(dir, "runs", gone)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("deleted run blob %s survived: %v", gone, err)
		}
	}
	if _, err := st.OpenRun("stay", label.TCM{}); err != nil {
		t.Fatalf("surviving run after sweep: %v", err)
	}
}

// TestCopySkipsRunDeletedMidCopy: a run deleted between Copy's listing
// and its reads (a retention sweep on a live source) is skipped; the
// copy completes with everything else. The .skl-side race (document
// read wins, labels already gone) is covered through the conformance
// suite's StoreDeleteRun subtest.
func TestCopySkipsRunDeletedMidCopy(t *testing.T) {
	src := store.NewMemBackend()
	defer src.Close()
	if err := src.WriteSpec([]byte("<spec>")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := src.WriteRun(name, []byte("d:"+name), []byte("l:"+name)); err != nil {
			t.Fatal(err)
		}
	}
	dst := store.NewMemBackend()
	defer dst.Close()
	if err := store.Copy(dst, vanishOnRead{Backend: src, name: "b"}); err != nil {
		t.Fatalf("Copy with mid-copy delete: %v", err)
	}
	names, err := dst.ListRuns()
	if err != nil || fmt.Sprint(names) != fmt.Sprint([]string{"a", "c"}) {
		t.Fatalf("copied runs = %v, %v; want [a c]", names, err)
	}
}

// TestCopySkipsLabelsDeletedMidCopy pins the narrower window: the
// document read succeeds but the labels vanish before their read —
// exactly what a concurrent DeleteRun's xml-then-skl ordering can
// expose to a copier that has already streamed the document.
func TestCopySkipsLabelsDeletedMidCopy(t *testing.T) {
	src := store.NewMemBackend()
	defer src.Close()
	if err := src.WriteSpec([]byte("<spec>")); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := src.WriteRun(name, []byte("d:"+name), []byte("l:"+name)); err != nil {
			t.Fatal(err)
		}
	}
	dst := store.NewMemBackend()
	defer dst.Close()
	if err := store.Copy(dst, vanishOnLabels{Backend: src, name: "a"}); err != nil {
		t.Fatalf("Copy with labels vanishing mid-copy: %v", err)
	}
	names, err := dst.ListRuns()
	if err != nil || fmt.Sprint(names) != "[b]" {
		t.Fatalf("copied runs = %v, %v; want [b]", names, err)
	}
}

// vanishOnRead deletes the named run the moment its document is read.
type vanishOnRead struct {
	store.Backend
	name string
}

func (v vanishOnRead) ReadRun(name string) (io.ReadCloser, error) {
	if name == v.name {
		v.Backend.DeleteRun(name)
	}
	return v.Backend.ReadRun(name)
}

// vanishOnLabels deletes the named run between its document read and
// its labels read.
type vanishOnLabels struct {
	store.Backend
	name string
}

func (v vanishOnLabels) ReadLabels(name string) (io.ReadCloser, error) {
	if name == v.name {
		v.Backend.DeleteRun(name)
	}
	return v.Backend.ReadLabels(name)
}
