package store_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/label"
	"repro/internal/run"
	"repro/internal/spec"
	"repro/internal/store"
)

func TestValidRunName(t *testing.T) {
	cases := []struct {
		name string
		ok   bool
	}{
		{"r1", true},
		{"run-2024.01_final", true},
		{"A", true},
		{"0", true},
		{"a..b", true},
		{"r.", true},
		{"", false},
		{".", false},
		{"..", false},
		{"...", false},     // leading dot: reserved for fs temp files
		{".hidden", false}, // ditto — would be invisible to fs ListRuns
		{"a/b", false},
		{`a\b`, false},
		{" r1", false},
		{"r1 ", false},
		{"r 1", false},
		{"r1\n", false},
		{"r\x001", false},
		{"r\tb", false},
		{"run:1", false},
		{"run*", false},
		{"ünïcode", false},
	}
	for _, c := range cases {
		err := store.ValidRunName(c.name)
		if c.ok && err != nil {
			t.Errorf("ValidRunName(%q) = %v, want nil", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("ValidRunName(%q) accepted", c.name)
		}
	}
}

// TestFSWriteRunAtomic pins the crash-safety mechanics of the fs
// backend: writes go through temp files that Runs() never lists, nothing
// stray survives a successful write, and the label snapshot is in place
// for every run the listing makes visible.
func TestFSWriteRunAtomic(t *testing.T) {
	dir := t.TempDir()
	s := spec.PaperSpec()
	st, err := store.Create(dir, s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(3)), 100)
	if err := st.PutRun("r1", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 {
		t.Fatalf("runs dir = %v, want exactly r1.xml and r1.skl", names)
	}
	// A leftover temp file from a crashed write must stay invisible.
	for _, stray := range []string{".r2.xml.tmp-123", ".r2.skl.tmp-123"} {
		if err := os.WriteFile(filepath.Join(dir, "runs", stray), []byte("truncated"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := st.Runs()
	if err != nil || len(runs) != 1 || runs[0] != "r1" {
		t.Fatalf("Runs() with stray temp files = %v, %v", runs, err)
	}
	// Every visible run must have its snapshot on disk (skl is renamed
	// into place before the xml that makes the run visible).
	if _, err := os.Stat(filepath.Join(dir, "runs", "r1.skl")); err != nil {
		t.Fatalf("visible run missing snapshot: %v", err)
	}
	if _, err := st.OpenRun("r1", label.TCM{}); err != nil {
		t.Fatal(err)
	}
}

func TestOpenURL(t *testing.T) {
	dir := t.TempDir()
	s := spec.PaperSpec()
	st, err := store.Create(dir, s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	r, _ := run.GenerateSized(s, rand.New(rand.NewSource(4)), 100)
	if err := st.PutRun("r1", r, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}

	for _, url := range []string{dir, "fs://" + dir, "mem://" + dir} {
		st2, err := store.OpenURL(url)
		if err != nil {
			t.Fatalf("OpenURL(%q): %v", url, err)
		}
		if st2.SpecName() != "paper" {
			t.Fatalf("OpenURL(%q) spec = %q", url, st2.SpecName())
		}
		sess, err := st2.OpenRun("r1", label.TCM{})
		if err != nil {
			t.Fatalf("OpenURL(%q).OpenRun = %v", url, err)
		}
		if document(t, sess).NumVertices() != r.NumVertices() {
			t.Fatalf("OpenURL(%q): stored run size changed", url)
		}
	}

	// The mem:// form is a RAM copy: writes there must not touch disk.
	memStore, err := store.OpenURL("mem://" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if kind := memStore.Stat().Kind; kind != "mem" {
		t.Fatalf("mem:// backend kind = %q", kind)
	}
	r2, _ := run.GenerateSized(s, rand.New(rand.NewSource(5)), 80)
	if err := memStore.PutRun("ephemeral", r2, nil, label.TCM{}); err != nil {
		t.Fatal(err)
	}
	diskRuns, err := st.Runs()
	if err != nil || len(diskRuns) != 1 {
		t.Fatalf("mem:// write leaked to disk: %v, %v", diskRuns, err)
	}

	for _, bad := range []string{"", "mem://", "mem:", "fs://", "shard://", "s3://bucket"} {
		if _, err := store.OpenURL(bad); err == nil {
			t.Errorf("OpenURL(%q) succeeded", bad)
		}
	}
	// "mem:" is the empty memory store, not a directory named "mem:".
	if _, err := store.OpenBackendURL("mem:"); err == nil || !strings.Contains(err.Error(), "mem:// starts empty") {
		t.Errorf(`OpenBackendURL("mem:") = %v, want the empty-memory-store error`, err)
	}
	// A scheme that is neither built in nor registered is refused, and
	// the error names it.
	for _, scheme := range []string{"shard", "s3"} {
		_, err := store.OpenURL(scheme + "://a,b")
		if err == nil || !strings.Contains(err.Error(), "unknown store URL scheme") || !strings.Contains(err.Error(), strconv.Quote(scheme)) {
			t.Errorf("OpenURL(%s://a,b) = %v, want an unknown-scheme error naming %q", scheme, err, scheme)
		}
	}
}

// TestCopyBackend round-trips a store through Copy in both directions:
// fs -> mem (warm load) and mem -> fs (snapshot to disk).
func TestCopyBackend(t *testing.T) {
	s := spec.PaperSpec()
	st, err := store.NewMem(s, "paper")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for _, name := range []string{"r1", "r2"} {
		r, _ := run.GenerateSized(s, rng, 90)
		if err := st.PutRun(name, r, nil, label.TCM{}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if err := store.Copy(store.NewFSBackend(dir), st.Backend()); err != nil {
		t.Fatal(err)
	}
	onDisk, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := onDisk.Runs()
	if err != nil || len(names) != 2 {
		t.Fatalf("copied store Runs() = %v, %v", names, err)
	}
	if _, err := onDisk.OpenRun("r2", label.BFS{}); err != nil {
		t.Fatalf("querying copied store: %v", err)
	}
}
