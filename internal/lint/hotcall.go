package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotCall protects the zero-copy extraction/merge guarantee: functions
// marked with a `//dana:hotpath` doc-comment directive run once per
// page (or per merge batch) in the steady state, and a heap allocation
// there — in the function's own body or anywhere it can REACH — turns
// into per-tuple GC pressure that the record arena exists to eliminate
// (the paper's compute model, §4, assumes the access engine's page loop
// never touches the Go allocator). One classifier, walkAllocSites,
// decides what allocates:
//
//   - make, new, and non-self appends (`x = append(x, ...)` — including
//     a resliced LHS like `x = append(x[:0], ...)` — is the
//     capacity-backed reuse idiom and stays exempt);
//   - heap-bound composite literals: &T{...}, slice and map literals
//     (plain struct *values* do not allocate and pass);
//   - func literals (closures capture and escape), except a literal
//     deferred directly — open-coded defers stay on the stack;
//   - go statements (a goroutine per page is exactly the churn the
//     per-epoch worker pool avoids);
//   - string concatenation and string<->[]byte/[]rune conversions.
//
// At depth 0 — the marked function's own body — every such site is
// reported, cold branches included: the author opted in, and an error
// path that must allocate lives in a callee. Below it the summary layer
// (summary.go) closes the same site set over the call graph, and each
// call site reports a callee whose closure allocates, rendering the
// chain so the diagnostic names the allocation, not just the call.
// There the refinements apply: sites in early-exit branches are cold
// and exempt (cold error paths may build fmt.Errorf values); calls
// through func values are unresolved and skipped (DESIGN.md "Soundness
// caveats"); interface calls fan out over module implementations (CHA)
// and report if ANY implementation allocates; external callees must be
// on the reviewed allocation-free allowlist — unlisted ones fail closed.
// An audited `//danalint:ignore hotcall -- reason` silences a site at
// depth 0 and stops it propagating into callers' summaries.
var HotCall = &Analyzer{
	Name: "hotcall",
	Doc: "no heap allocation in a //dana:hotpath function's own body, and " +
		"only callees whose summaries prove allocation-freedom below it",
	Run: runHotCall,
}

// hotpathDirective marks a function as allocation-free-by-contract.
const hotpathDirective = "dana:hotpath"

func isHotpathMarked(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == hotpathDirective {
			return true
		}
	}
	return false
}

func runHotCall(pass *Pass) error {
	m := pass.Mod
	for _, id := range m.FuncIDs() {
		fi := m.Funcs[id]
		if fi.Pkg != pass.Unit || !fi.Hot {
			continue
		}
		name := fi.Obj.Name()
		walkAllocSites(pass.TypesInfo, fi.Decl.Body, func(n ast.Node, _ []ast.Node, what, fix string) {
			pass.Reportf(n.Pos(), "%s in hot path %s: %s", what, name, fix)
		})
		for _, site := range fi.Calls {
			if site.Cold || site.Unresolved {
				continue
			}
			verb := "calls"
			if site.Dynamic {
				verb = "may call (interface dispatch)"
			}
			for _, callee := range site.Callees {
				if cs, ok := m.Summaries[callee]; ok {
					if cs.TransAllocs {
						pass.Reportf(site.Pos, "hotpath %s %s %s, which allocates: %s",
							name, verb, shortFuncID(callee), cs.TransAllocDesc)
					}
					continue
				}
				if why := externAllocs(callee); why != "" {
					pass.Reportf(site.Pos, "hotpath %s %s %s: %s", name, verb, shortFuncID(callee), why)
				}
			}
		}
	}
	return nil
}

// walkAllocSites is the one allocation-site classifier: it calls visit
// for every heap-allocating construct in body — what it is, and the fix
// to suggest — with the node's ancestor stack. runHotCall reports each
// site of a marked body; the summary keeps a callee's first hot,
// unaudited one. Two shapes are exempt: appends whose destination
// reuses the appended slice's backing array, and func literals consumed
// by an open-coded defer (those stay on the stack).
// Plain struct values (a struct handed to a channel, PageResult{}
// zeroing) live in registers or on the stack and pass.
func walkAllocSites(info *types.Info, body *ast.BlockStmt, visit func(n ast.Node, stack []ast.Node, what, fix string)) {
	selfAppends := map[*ast.CallExpr]bool{}
	deferredLits := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || i >= len(n.Lhs) || !isBuiltinCall(info, call, "append") || len(call.Args) == 0 {
					continue
				}
				if exprString(stripReslice(call.Args[0])) == exprString(n.Lhs[i]) {
					selfAppends[call] = true
				}
			}
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				deferredLits[lit] = true
			}
		}
		return true
	})
	const concat = "string concatenation"
	const concatFix = "allocates a new string per call"
	inspectStack(body, func(n ast.Node, stack []ast.Node) bool {
		what, fix := "", ""
		switch n := n.(type) {
		case *ast.CallExpr:
			switch {
			case isBuiltinCall(info, n, "make"):
				what, fix = "make", "allocates per call; hoist the buffer to the enclosing struct and reuse it"
			case isBuiltinCall(info, n, "new"):
				what, fix = "new", "allocates per call; reuse a pooled or arena-backed value"
			case isBuiltinCall(info, n, "append"):
				if !selfAppends[n] {
					what, fix = "append to a different slice", "copies into fresh backing storage; append in place (x = append(x, ...))"
				}
			default:
				// A call whose operand position holds a type is a conversion;
				// string <-> byte/rune-slice conversions copy their payload.
				if tv, ok := info.Types[n.Fun]; ok && tv.IsType() && len(n.Args) == 1 {
					dst, src := tv.Type, info.Types[n.Args[0]].Type
					if (isStringUnderlying(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStringUnderlying(src)) {
						what, fix = "string conversion", "copies the payload per call"
					}
				}
			}
		case *ast.CompositeLit:
			// Slice and map literals always allocate backing storage.
			if tv, ok := info.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					what, fix = "slice literal", "allocates backing storage per call; reuse a hoisted buffer"
				case *types.Map:
					what, fix = "map literal", "allocates per call; hoist the map and clear it instead"
				}
			}
		case *ast.GoStmt:
			what, fix = "go statement", "spawns a goroutine per call; use a persistent worker pool"
		case *ast.FuncLit:
			if !deferredLits[n] {
				what, fix = "func literal", "closures allocate; hoist the function or its captured state"
			}
		case *ast.UnaryExpr:
			if _, isLit := ast.Unparen(n.X).(*ast.CompositeLit); isLit && n.Op == token.AND {
				what, fix = "&composite literal", "escapes to the heap; reuse a pooled or hoisted value"
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringUnderlying(info.Types[n.X].Type) {
				what, fix = concat, concatFix
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringUnderlying(info.Types[n.Lhs[0]].Type) {
				what, fix = concat, concatFix
			}
		}
		if what != "" {
			visit(n, stack, what, fix)
		}
		return true
	})
}

// stripReslice unwraps parens and slice expressions: append(x[:0], ...)
// reuses x's backing array, so the self-append exemption compares the
// root expression.
func stripReslice(e ast.Expr) ast.Expr {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = v.X
		default:
			return v
		}
	}
}

// exprString renders an expression for messages and for syntactic
// equality (identifiers, selectors, and index expressions — the shapes
// append destinations take).
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.BasicLit:
		return e.Value
	default:
		return "?"
	}
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}

func isStringUnderlying(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
