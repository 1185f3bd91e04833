package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ObsGuard enforces the observability layer's "disabled mode is free"
// contract (DESIGN.md, Observability): with obs.Noop every instrument
// handle is nil and every method call is a nil-check no-op — but Go
// still evaluates the ARGUMENTS of those calls, and name lookups on the
// registry still take a mutex. Two rules keep Noop sites free:
//
//  1. Registry name lookups (Counter/Float/Hist) belong in setup code
//     only — SetObs-style wiring, constructors, init — never on paths
//     that run per page or per epoch.
//  2. Arguments at instrument call sites (Counter.Add, Histogram.
//     Observe, Ring.Emit, Registry.Trace, …) must be allocation-free:
//     no composite literals, no string building, no calls returning
//     heap values. A `c.Add(int64(len(fmt.Sprintf(…))))` would charge
//     the allocation even with observability disabled.
var ObsGuard = &Analyzer{
	Name: "obsguard",
	Doc:  "obs call sites must stay zero-alloc and lookup-free so obs.Noop is free",
	Run:  runObsGuard,
}

// lookupMethods are the mutex-taking, map-allocating Registry methods.
var lookupMethods = map[string]bool{"Counter": true, "Float": true, "Hist": true}

// instrumentMethods are the hot-path charge methods whose arguments are
// evaluated even under obs.Noop.
var instrumentMethods = map[string]bool{
	"Add": true, "Inc": true, "Observe": true, "Emit": true, "Trace": true,
}

func isObsType(t types.Type) bool {
	p, ok := derefNamed(t)
	return ok && (strings.HasSuffix(p, "internal/obs") || p == "obs")
}

// derefNamed returns the package path of a (possibly pointer-to) named
// type.
func derefNamed(t types.Type) (string, bool) {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", false
	}
	return named.Obj().Pkg().Path(), true
}

func runObsGuard(pass *Pass) error {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/obs") {
		return nil // the implementation itself is exempt
	}
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.Pos()).Filename
		isTest := strings.HasSuffix(filename, "_test.go")
		var stack []funcCtx
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				stack = append(stack, funcCtx{name: n.Name.Name, end: n.End()})
			case *ast.FuncLit:
				name := ""
				if len(stack) > 0 {
					name = stack[len(stack)-1].name
				}
				stack = append(stack, funcCtx{name: name, end: n.End()})
			case *ast.CallExpr:
				for len(stack) > 0 && stack[len(stack)-1].end < n.Pos() {
					stack = stack[:len(stack)-1]
				}
				fnName := ""
				if len(stack) > 0 {
					fnName = stack[len(stack)-1].name
				}
				checkObsCall(pass, n, fnName, isTest)
			}
			return true
		})
	}
	return nil
}

type funcCtx struct {
	name string
	end  token.Pos
}

func checkObsCall(pass *Pass, call *ast.CallExpr, fnName string, isTest bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal || !isObsType(s.Recv()) {
		return
	}
	name := sel.Sel.Name
	if lookupMethods[name] {
		if isTest || isSetupFunc(fnName) || strings.HasPrefix(pass.Pkg.Path(), "dana/cmd/") {
			return
		}
		pass.Reportf(call.Pos(),
			"obs registry lookup %s(%s) outside setup code (function %s): resolve the handle once in SetObs and charge through the pointer",
			name, argPreview(call), fnName)
		return
	}
	if !instrumentMethods[name] {
		return
	}
	for _, arg := range call.Args {
		if bad, why := allocatingExpr(pass.TypesInfo, arg); bad {
			pass.Reportf(arg.Pos(),
				"argument of obs %s.%s %s: obs.Noop sites must stay zero-alloc (hoist it behind an explicit enabled check)",
				typeShort(s.Recv()), name, why)
		}
	}
}

// isSetupFunc reports whether registry lookups are acceptable in the
// named function: observability wiring and constructors.
func isSetupFunc(name string) bool {
	return strings.HasPrefix(name, "SetObs") || strings.HasPrefix(name, "New") ||
		name == "init" || name == "main" || name == ""
}

// allocatingExpr conservatively classifies an expression as possibly
// allocating (or otherwise expensive enough to hoist).
func allocatingExpr(info *types.Info, e ast.Expr) (bool, string) {
	switch e := e.(type) {
	case *ast.BasicLit, *ast.Ident:
		return false, ""
	case *ast.SelectorExpr:
		return false, "" // field or package selector
	case *ast.ParenExpr:
		return allocatingExpr(info, e.X)
	case *ast.StarExpr:
		return allocatingExpr(info, e.X)
	case *ast.IndexExpr:
		if bad, why := allocatingExpr(info, e.X); bad {
			return bad, why
		}
		return allocatingExpr(info, e.Index)
	case *ast.UnaryExpr:
		return allocatingExpr(info, e.X)
	case *ast.BinaryExpr:
		if isStringType(info, e.X) || isStringType(info, e.Y) {
			return true, "concatenates strings"
		}
		if bad, why := allocatingExpr(info, e.X); bad {
			return bad, why
		}
		return allocatingExpr(info, e.Y)
	case *ast.CompositeLit:
		return true, "builds a composite literal"
	case *ast.FuncLit:
		return true, "allocates a closure"
	case *ast.CallExpr:
		return allocatingCall(info, e)
	default:
		return false, ""
	}
}

func allocatingCall(info *types.Info, call *ast.CallExpr) (bool, string) {
	// Builtins and conversions.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "len", "cap", "min", "max":
			for _, a := range call.Args {
				if bad, why := allocatingExpr(info, a); bad {
					return bad, why
				}
			}
			return false, ""
		case "append", "make", "new":
			return true, "allocates (" + fun.Name + ")"
		}
	}
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// Conversion: fine to basic scalars, allocating to string/[]byte.
		if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Kind() != types.String {
			return allocatingExpr(info, call.Args[0])
		}
		return true, "converts to a heap-backed type"
	}
	// A real call: allowed when the result is a basic scalar (counters
	// often charge time.Since(x).Nanoseconds() — no allocation), flagged
	// when it yields strings, slices, interfaces, or pointers.
	if tv, ok := info.Types[call]; ok {
		switch u := tv.Type.Underlying().(type) {
		case *types.Basic:
			if u.Kind() != types.String {
				return false, ""
			}
		}
	}
	return true, "calls a function returning a heap-backed value"
}

func isStringType(info *types.Info, e ast.Expr) bool {
	return isStringUnderlying(info.Types[e].Type)
}

func typeShort(t types.Type) string {
	s := t.String()
	if i := strings.LastIndex(s, "."); i >= 0 {
		return s[i+1:]
	}
	return s
}

func argPreview(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	if lit, ok := call.Args[0].(*ast.BasicLit); ok {
		return lit.Value
	}
	if sel, ok := call.Args[0].(*ast.SelectorExpr); ok {
		return exprString(sel)
	}
	return "…"
}
