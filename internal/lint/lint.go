// Framework core: the Analyzer interface, diagnostics, suppression
// directives and the JSON report. The package doc comment — including
// what each invariant protects and why it is load-bearing — lives in
// doc.go.

package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package the analyzers run over.
// Test files (_test.go) are never loaded: the invariants govern shipped
// code, and tests are free to use unseeded randomness or drop errors.
type Package struct {
	// Path is the import path the package was loaded under. Analyzers
	// that scope themselves to part of the tree (errwrap to the store,
	// counterreg to the server) match on suffixes/segments of this path.
	Path string
	// Dir is the directory the files were parsed from.
	Dir string
	// Fset is the shared FileSet all positions resolve against.
	Fset *token.FileSet
	// Files are the parsed non-test files, comments included.
	Files []*ast.File
	// Pkg and Info are the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info
}

// Diagnostic is one position-tagged finding.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	// File is the path relative to the module root when possible.
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	// Suppressed reports that a //provlint:ignore directive covers this
	// finding; Reason is the justification the directive carried.
	Suppressed bool   `json:"suppressed,omitempty"`
	Reason     string `json:"reason,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Reporter is the callback analyzers deliver findings through.
type Reporter func(pos token.Pos, format string, args ...any)

// Analyzer is one invariant checker. Check is called once per loaded
// package and reports findings through the Reporter; implementations
// must not retain pkg past the call.
type Analyzer interface {
	// Name is the analyzer's identifier — the token a
	// //provlint:ignore directive and the -only flag select it by.
	Name() string
	// Doc is a one-paragraph description of the enforced invariant.
	Doc() string
	Check(pkg *Package, report Reporter)
}

// All returns the full analyzer suite in stable order.
func All() []Analyzer {
	return []Analyzer{
		ErrWrap{},
		GuardedBy{},
		CounterReg{},
		SeededRand{},
		DroppedErr{},
	}
}

// Select filters All() down to the comma-separated names in only
// (empty selects everything). Unknown names are an error so a typo in
// -only cannot silently skip an invariant.
func Select(only string) ([]Analyzer, error) {
	all := All()
	if strings.TrimSpace(only) == "" {
		return all, nil
	}
	byName := make(map[string]Analyzer, len(all))
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q (have %s)", name, strings.Join(Names(all), ", "))
		}
		out = append(out, a)
	}
	return out, nil
}

// Names lists the analyzers' names in order.
func Names(as []Analyzer) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Name()
	}
	return out
}

// IgnoreDirective is the comment prefix that suppresses a finding:
//
//	//provlint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line directly above it. The reason
// is mandatory — a suppression without a justification is itself a
// finding, so every escape hatch in the tree documents why the
// invariant does not apply.
const IgnoreDirective = "provlint:ignore"

// suppression is one parsed //provlint:ignore directive.
type suppression struct {
	analyzer string
	reason   string
}

// suppressionIndex maps file -> line -> directive for one package.
type suppressionIndex map[string]map[int]suppression

// indexSuppressions scans a package's comments for ignore directives.
// Malformed directives (missing analyzer or reason) are reported as
// findings from the pseudo-analyzer "provlint" — they can never be
// suppressed, so a broken escape hatch is always visible.
func indexSuppressions(pkg *Package, root string, report func(Diagnostic)) suppressionIndex {
	idx := make(suppressionIndex)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, IgnoreDirective) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				file := relTo(root, pos.Filename)
				rest := strings.TrimSpace(strings.TrimPrefix(text, IgnoreDirective))
				analyzer, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				if analyzer == "" || reason == "" {
					report(Diagnostic{
						Analyzer: "provlint",
						File:     file, Line: pos.Line, Col: pos.Column,
						Message: "malformed ignore directive: want //provlint:ignore <analyzer> <reason>",
					})
					continue
				}
				if idx[file] == nil {
					idx[file] = make(map[int]suppression)
				}
				idx[file][pos.Line] = suppression{analyzer: analyzer, reason: reason}
			}
		}
	}
	return idx
}

// covers reports whether a directive at the diagnostic's line or the
// line above names its analyzer.
func (idx suppressionIndex) covers(d Diagnostic) (suppression, bool) {
	lines := idx[d.File]
	if lines == nil {
		return suppression{}, false
	}
	for _, line := range []int{d.Line, d.Line - 1} {
		if s, ok := lines[line]; ok && s.analyzer == d.Analyzer {
			return s, true
		}
	}
	return suppression{}, false
}

// Run applies the analyzers to every package and returns all
// diagnostics — suppressed ones included, flagged — sorted by position.
// root (the module root) relativizes file paths; empty keeps them
// absolute.
func Run(pkgs []*Package, analyzers []Analyzer, root string) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		idx := indexSuppressions(pkg, root, func(d Diagnostic) { diags = append(diags, d) })
		for _, a := range analyzers {
			a.Check(pkg, func(pos token.Pos, format string, args ...any) {
				p := pkg.Fset.Position(pos)
				d := Diagnostic{
					Analyzer: a.Name(),
					File:     relTo(root, p.Filename), Line: p.Line, Col: p.Column,
					Message: fmt.Sprintf(format, args...),
				}
				if s, ok := idx.covers(d); ok {
					d.Suppressed, d.Reason = true, s.reason
				}
				diags = append(diags, d)
			})
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// Unsuppressed filters diags down to the findings that fail a lint run.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Report is the machine-readable output of one lint run ("provlint.v1").
type Report struct {
	Schema    string       `json:"schema"`
	Module    string       `json:"module"`
	Analyzers []string     `json:"analyzers"`
	Packages  int          `json:"packages"`
	Findings  int          `json:"findings"` // unsuppressed count
	Diags     []Diagnostic `json:"diagnostics"`
}

// NewReport assembles the JSON report for one run.
func NewReport(module string, analyzers []Analyzer, packages int, diags []Diagnostic) Report {
	if diags == nil {
		diags = []Diagnostic{}
	}
	return Report{
		Schema:    "provlint.v1",
		Module:    module,
		Analyzers: Names(analyzers),
		Packages:  packages,
		Findings:  len(Unsuppressed(diags)),
		Diags:     diags,
	}
}

// WriteJSON encodes the report, indented for artifact diffing.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// relTo makes path relative to root when it nests inside it.
func relTo(root, path string) string {
	if root == "" {
		return path
	}
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// errorType is the universe error interface, shared by analyzers.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is or implements error.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType) || types.Identical(t, errorType)
}

// lastIdent returns the final identifier of a selector chain ("c.mu" ->
// "mu", "mu" -> "mu"), or "" when the expression is something else.
func lastIdent(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.ParenExpr:
		return lastIdent(x.X)
	}
	return ""
}

// funcFor resolves a call's callee to the *types.Func it invokes
// (package function, method, or interface method), or nil for calls
// through function-typed values, conversions, and builtins.
func funcFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
