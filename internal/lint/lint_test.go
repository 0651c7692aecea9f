package lint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// fixtures maps each fixture directory under testdata/src to the import
// path it impersonates (errwrap and counterreg scope themselves by
// path) and the analyzer whose invariant it encodes.
var fixtures = []struct {
	dir      string
	asPath   string
	analyzer string
}{
	{"errwrap", "repro/internal/store/lintfixture", "errwrap"},
	{"guardedby", "fixture/guardedby", "guardedby"},
	{"counterreg", "fixture/internal/server", "counterreg"},
	{"seededrand", "fixture/seededrand", "seededrand"},
	{"droppederr", "fixture/droppederr", "droppederr"},
}

// One loader for the whole test binary: the stdlib is type-checked from
// source once, every fixture and self-check reuses it.
var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func testLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader("../..")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

// expectation is one //lintwant comment: a diagnostic from analyzer at
// file:line with the given suppression state.
type expectation struct {
	file       string
	line       int
	analyzer   string
	suppressed bool
}

var lintwantRe = regexp.MustCompile(`//lintwant(\+\d+)?\s+(\S+)(\s+suppressed)?`)

// wantsIn parses //lintwant [analyzer] and //lintwant+N (N lines down)
// comments out of every .go file in dir.
func wantsIn(t *testing.T, dir string) []expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := lintwantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			offset := 0
			if m[1] != "" {
				offset, _ = strconv.Atoi(m[1][1:])
			}
			wants = append(wants, expectation{
				file:       path,
				line:       line + offset,
				analyzer:   m[2],
				suppressed: m[3] != "",
			})
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no //lintwant expectations", dir)
	}
	return wants
}

func diagKey(d Diagnostic) string {
	return fmt.Sprintf("%s:%d %s suppressed=%v", d.File, d.Line, d.Analyzer, d.Suppressed)
}

func wantKey(w expectation) string {
	return fmt.Sprintf("%s:%d %s suppressed=%v", w.file, w.line, w.analyzer, w.suppressed)
}

// runFixture lints one fixture dir with the given analyzers and returns
// the diagnostics with file paths as written in the fixture.
func runFixture(t *testing.T, dir, asPath string, analyzers []Analyzer) []Diagnostic {
	t.Helper()
	l := testLoader(t)
	pkg, err := l.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	return Run([]*Package{pkg}, analyzers, "")
}

// TestFixtureGolden compares, per fixture, the full diagnostic set from
// the full analyzer suite against the fixture's //lintwant comments —
// positions, analyzers and suppression state all have to match exactly.
func TestFixtureGolden(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", fx.dir)
			diags := runFixture(t, dir, fx.asPath, All())
			got := make(map[string]Diagnostic)
			for _, d := range diags {
				got[diagKey(d)] = d
			}
			want := make(map[string]expectation)
			for _, w := range wantsIn(t, dir) {
				want[wantKey(w)] = w
			}
			for k := range want {
				if _, ok := got[k]; !ok {
					t.Errorf("missing expected diagnostic: %s", k)
				}
			}
			for k, d := range got {
				if _, ok := want[k]; !ok {
					t.Errorf("unexpected diagnostic: %s (%s)", k, d.Message)
				}
			}
		})
	}
}

// TestFixtureRequiresAnalyzer proves each analyzer is load-bearing:
// with it disabled, its fixture — which deliberately violates only that
// analyzer's invariant — lints completely clean, so nothing else would
// have caught the bug.
func TestFixtureRequiresAnalyzer(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.dir, func(t *testing.T) {
			var rest []Analyzer
			for _, a := range All() {
				if a.Name() != fx.analyzer {
					rest = append(rest, a)
				}
			}
			dir := filepath.Join("testdata", "src", fx.dir)
			full := runFixture(t, dir, fx.asPath, All())
			if n := len(findingsBy(full, fx.analyzer)); n == 0 {
				t.Fatalf("fixture produces no %s findings with the full suite", fx.analyzer)
			}
			reduced := runFixture(t, dir, fx.asPath, rest)
			if diags := Unsuppressed(reduced); len(diags) != 0 {
				t.Fatalf("without %s the fixture should lint clean, got %v", fx.analyzer, diags)
			}
		})
	}
}

func findingsBy(diags []Diagnostic, analyzer string) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Analyzer == analyzer && !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// TestMalformedDirective: an ignore directive without a reason is a
// finding itself and suppresses nothing.
func TestMalformedDirective(t *testing.T) {
	dir := filepath.Join("testdata", "src", "malformed")
	diags := runFixture(t, dir, "fixture/malformed", All())
	got := make(map[string]bool)
	for _, d := range diags {
		got[diagKey(d)] = true
	}
	for _, w := range wantsIn(t, dir) {
		if !got[wantKey(w)] {
			t.Errorf("missing expected diagnostic: %s (got %v)", wantKey(w), diags)
		}
	}
	for _, d := range diags {
		if d.Suppressed {
			t.Errorf("malformed directive must not suppress: %s", d)
		}
	}
	if len(diags) != 2 {
		t.Errorf("want exactly 2 diagnostics (provlint + droppederr), got %d: %v", len(diags), diags)
	}
}

// TestSuppressionCarriesReason: a justified drop in the droppederr
// fixture is suppressed and its reason survives into the diagnostic.
func TestSuppressionCarriesReason(t *testing.T) {
	dir := filepath.Join("testdata", "src", "droppederr")
	diags := runFixture(t, dir, "fixture/droppederr", All())
	var suppressed []Diagnostic
	for _, d := range diags {
		if d.Suppressed {
			suppressed = append(suppressed, d)
		}
	}
	if len(suppressed) != 1 {
		t.Fatalf("want 1 suppressed diagnostic, got %v", suppressed)
	}
	if want := "fixture demonstrates a justified best-effort drop"; suppressed[0].Reason != want {
		t.Errorf("reason = %q, want %q", suppressed[0].Reason, want)
	}
	if len(Unsuppressed(diags)) != len(diags)-1 {
		t.Errorf("Unsuppressed dropped %d diagnostics, want exactly 1", len(diags)-len(Unsuppressed(diags)))
	}
}

// TestJSONReport pins the provlint.v1 report shape the CI artifact
// (LINT.json) carries: schema tag, analyzer list, finding count
// excluding suppressions, and per-diagnostic suppression reasons.
func TestJSONReport(t *testing.T) {
	dir := filepath.Join("testdata", "src", "droppederr")
	diags := runFixture(t, dir, "fixture/droppederr", All())
	report := NewReport("repro", All(), 1, diags)

	var buf bytes.Buffer
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Schema    string   `json:"schema"`
		Module    string   `json:"module"`
		Analyzers []string `json:"analyzers"`
		Packages  int      `json:"packages"`
		Findings  int      `json:"findings"`
		Diags     []struct {
			Analyzer   string `json:"analyzer"`
			File       string `json:"file"`
			Line       int    `json:"line"`
			Message    string `json:"message"`
			Suppressed bool   `json:"suppressed"`
			Reason     string `json:"reason"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("decoding report: %v", err)
	}
	if decoded.Schema != "provlint.v1" {
		t.Errorf("schema = %q, want provlint.v1", decoded.Schema)
	}
	if decoded.Module != "repro" || decoded.Packages != 1 {
		t.Errorf("module/packages = %q/%d", decoded.Module, decoded.Packages)
	}
	if want := Names(All()); !equalStrings(decoded.Analyzers, want) {
		t.Errorf("analyzers = %v, want %v", decoded.Analyzers, want)
	}
	if decoded.Findings != len(Unsuppressed(diags)) || decoded.Findings == 0 {
		t.Errorf("findings = %d, want %d (nonzero)", decoded.Findings, len(Unsuppressed(diags)))
	}
	if len(decoded.Diags) != len(diags) {
		t.Fatalf("diagnostics = %d, want %d", len(decoded.Diags), len(diags))
	}
	foundSuppressed := false
	for _, d := range decoded.Diags {
		if d.Analyzer == "" || d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic in JSON: %+v", d)
		}
		if d.Suppressed {
			foundSuppressed = true
			if d.Reason == "" {
				t.Errorf("suppressed diagnostic lost its reason: %+v", d)
			}
		}
	}
	if !foundSuppressed {
		t.Error("JSON report must carry suppressed diagnostics")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelect covers -only's selection semantics, typo included.
func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("Select(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := Select("errwrap, droppederr")
	if err != nil || len(two) != 2 || two[0].Name() != "errwrap" || two[1].Name() != "droppederr" {
		t.Fatalf("Select(errwrap,droppederr) = %v, err %v", Names(two), err)
	}
	if _, err := Select("errwarp"); err == nil {
		t.Fatal("Select with a typo must fail, not silently skip an invariant")
	}
}

// TestVerbParsing pins the format-string/argument pairing errwrap
// relies on.
func TestVerbParsing(t *testing.T) {
	cases := []struct {
		format string
		want   []verb
	}{
		{"plain", nil},
		{"%v", []verb{{'v', 0}}},
		{"%d %s %w", []verb{{'d', 0}, {'s', 1}, {'w', 2}}},
		{"100%% %v", []verb{{'v', 0}}},
		{"%*d %v", []verb{{'d', 1}, {'v', 2}}},
		{"%.2f %q", []verb{{'f', 0}, {'q', 1}}},
		{"%[2]v %[1]v", []verb{{'v', 1}, {'v', 0}}},
		{"%+v", []verb{{'v', 0}}},
	}
	for _, c := range cases {
		got := parseVerbs(c.format)
		if len(got) != len(c.want) {
			t.Errorf("parseVerbs(%q) = %v, want %v", c.format, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseVerbs(%q)[%d] = %v, want %v", c.format, i, got[i], c.want[i])
			}
		}
	}
}
