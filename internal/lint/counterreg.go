package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CounterReg keeps every internal/server endpoint in its route table.
// The table is where an endpoint gets its /healthz served counter (the
// ground truth cmd/provload diffs against its client-side counts), its
// method check and its error mapping, all from one wrapper; a pattern
// registered on the mux directly would skip all three, and its traffic
// would be invisible. So every (*http.ServeMux).Handle or HandleFunc
// call in the package must pass a route entry's pattern field, never a
// literal or any other string.
type CounterReg struct{}

func (CounterReg) Name() string { return "counterreg" }

func (CounterReg) Doc() string {
	return "every mux registration in internal/server passes a route table entry's pattern"
}

func (CounterReg) Check(pkg *Package, report Reporter) {
	if !strings.HasSuffix(pkg.Path, "/internal/server") {
		return
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) < 1 {
				return true
			}
			fn := funcFor(pkg.Info, call)
			if fn == nil || (fn.Name() != "HandleFunc" && fn.Name() != "Handle") {
				return true
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || !strings.Contains(recv.Type().String(), "net/http.ServeMux") {
				return true
			}
			if !isRoutePattern(pkg.Info, call.Args[0]) {
				report(call.Args[0].Pos(),
					"mux registration outside the route table: declare the endpoint as a route so it is counted in /healthz, method-checked and error-mapped")
			}
			return true
		})
	}
}

// isRoutePattern reports whether e selects the pattern field of a
// struct type named route.
func isRoutePattern(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal || s.Obj().Name() != "pattern" {
		return false
	}
	t := s.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "route"
}
