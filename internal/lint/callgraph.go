package lint

// Interprocedural layer, part 1: the module-wide call graph. PR 5's
// analyzers were deliberately intra-function — every invariant was
// decidable from one body plus its package's types. Two invariants are
// not: hotpath allocation-freedom is a property of the whole call
// closure, and lock order couples the locks a caller holds to every
// lock its callees take. This file lifts the
// loader's output into a Module: an index of every declared function,
// with call edges resolved by CHA (class-hierarchy analysis) narrowed
// by receiver types — a static call through a concrete receiver gets
// exactly one edge; a call through an interface fans out to every
// module type that implements it.
//
// Soundness caveats (documented in DESIGN.md): calls through func
// values are recorded as unresolved (no edges); reflection is invisible;
// interface fan-out only sees implementations declared in the analyzed
// packages. Analyzers that consume the graph treat unresolved calls as
// no-ops and say so in their docs.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Module is the whole-repo analysis index handed to analyzers via
// Pass.Mod: every declared function, its resolved call sites, and the
// bottom-up summaries computed over the call graph's SCCs.
type Module struct {
	Fset  *token.FileSet
	Funcs map[string]*FuncInfo // FuncID -> info, for functions declared in the packages

	// Summaries holds the per-function facts computed bottom-up over
	// the call graph (see summary.go).
	Summaries map[string]*Summary

	// LockEdges is the module-wide lock-order graph: an edge records
	// one lock acquired while another was held (directly or through a
	// callee's transitive lock set).
	LockEdges []LockEdge

	funcIDs   []string // sorted keys of Funcs
	named     []*types.Named
	implCache map[string][]string
	sups      map[*Package]suppressions
}

// FuncInfo is one declared function or method.
type FuncInfo struct {
	ID   string // FuncID of Obj (stable across loads)
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package
	Hot  bool // carries the //dana:hotpath directive

	// Calls lists the function's call sites in source order. Calls
	// inside nested function literals are attributed to the declaring
	// function (the literal runs with its captures; for closure-level
	// precision an analyzer can re-walk the body itself).
	Calls []*CallSite

	lockAcqs []lockAcq
}

// CallSite is one resolved call expression.
type CallSite struct {
	Pos token.Pos

	// Callees holds the FuncIDs the call may reach, sorted. A static
	// call has exactly one; an interface call holds the CHA fan-out
	// over module implementations. External (stdlib) callees appear
	// here too and are classified by externAllocs.
	Callees []string

	// Dynamic marks interface dispatch (Callees is a CHA
	// approximation, not an exact target).
	Dynamic bool

	// Unresolved marks calls through func values: no callee is known.
	Unresolved bool

	// Cold marks sites inside an early-exit conditional branch (an
	// if/case body whose last statement is a return or panic) — the
	// error-path refinement: allocation there does not disprove
	// steady-state allocation-freedom.
	Cold bool

	// Defer marks a deferred call (a deferred Unlock releases only at
	// exit).
	Defer bool

	// Held snapshots the lock IDs held (per the linear intra-function
	// scan) when control reaches this site.
	Held []string
}

// lockAcq is one mutex acquisition with the locks held at that point.
type lockAcq struct {
	id   string
	held []string
	pos  token.Pos
}

// FuncID returns the stable identifier used for call-graph keys:
// types.Func.FullName, e.g. "dana/internal/bufpool.(*Pool).Pin"
// renders as "(*dana/internal/bufpool.Pool).Pin".
func FuncID(fn *types.Func) string { return fn.FullName() }

// BuildModule indexes the analysis packages, resolves every call site,
// and computes the bottom-up summaries. All iteration is over sorted
// keys so two builds of the same module yield identical results
// (TestAnalyzerDeterminism pins this).
func BuildModule(pkgs []*Package) *Module {
	m := &Module{
		Funcs:     map[string]*FuncInfo{},
		Summaries: map[string]*Summary{},
		implCache: map[string][]string{},
		sups:      map[*Package]suppressions{},
	}
	if len(pkgs) > 0 {
		m.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		m.sups[pkg] = collectSuppressions(pkg.Fset, pkg.Files)
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && !types.IsInterface(named) {
					m.named = append(m.named, named)
				}
			}
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{
					ID:   FuncID(obj),
					Obj:  obj,
					Decl: fd,
					Pkg:  pkg,
					Hot:  isHotpathMarked(fd.Doc),
				}
				m.Funcs[fi.ID] = fi
			}
		}
	}
	sort.Slice(m.named, func(i, j int) bool {
		return m.named[i].String() < m.named[j].String()
	})
	m.funcIDs = make([]string, 0, len(m.Funcs))
	for id := range m.Funcs {
		m.funcIDs = append(m.funcIDs, id)
	}
	sort.Strings(m.funcIDs)
	for _, id := range m.funcIDs {
		m.collectCalls(m.Funcs[id])
	}
	buildSummaries(m)
	return m
}

// FuncIDs returns the sorted IDs of all indexed functions.
func (m *Module) FuncIDs() []string { return m.funcIDs }

// collectCalls walks one body, resolving call sites and threading the
// linear lock-hold state (see summary.go for how Held is consumed).
func (m *Module) collectCalls(fi *FuncInfo) {
	var held []string
	inspectStack(fi.Decl.Body, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		site := &CallSite{Pos: call.Pos(), Cold: coldSite(call, stack)}
		if len(stack) > 0 {
			_, site.Defer = stack[len(stack)-1].(*ast.DeferStmt)
		}
		callees, dynamic, unresolved := m.resolveCall(fi.Pkg, call)
		site.Callees, site.Dynamic, site.Unresolved = callees, dynamic, unresolved

		// Linear lock tracking: Lock pushes, Unlock pops, a deferred
		// Unlock releases only at exit (so the lock stays held for the
		// rest of the scan — exactly the window order edges care about).
		site.Held = append([]string(nil), held...)
		if id, acquire, release := lockOp(fi.Pkg, fi, call); id != "" {
			if acquire {
				fi.lockAcqs = append(fi.lockAcqs, lockAcq{id: id, held: site.Held, pos: call.Pos()})
				held = append(held, id)
			} else if release && !site.Defer {
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == id {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			}
		}
		fi.Calls = append(fi.Calls, site)
		return true
	})
}

// resolveCall maps one call expression to callee FuncIDs.
func (m *Module) resolveCall(pkg *Package, call *ast.CallExpr) (ids []string, dynamic, unresolved bool) {
	fun := ast.Unparen(call.Fun)
	// Unwrap generic instantiation syntax f[T](...).
	switch g := fun.(type) {
	case *ast.IndexExpr:
		if tv, ok := pkg.TypesInfo.Types[g.Index]; ok && tv.IsType() {
			fun = ast.Unparen(g.X)
		}
	case *ast.IndexListExpr:
		fun = ast.Unparen(g.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch obj := pkg.TypesInfo.Uses[f].(type) {
		case *types.Func:
			return []string{FuncID(obj)}, false, false
		case *types.Builtin, *types.TypeName, nil:
			return nil, false, false
		default:
			return nil, false, true // func value
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.TypesInfo.Selections[f]; ok {
			if sel.Kind() != types.MethodVal {
				return nil, false, true // func-typed field
			}
			fn := sel.Obj().(*types.Func)
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				return m.implementations(iface, fn), true, false
			}
			return []string{FuncID(fn)}, false, false
		}
		// Qualified identifier (pkg.Func) or conversion.
		switch obj := pkg.TypesInfo.Uses[f.Sel].(type) {
		case *types.Func:
			return []string{FuncID(obj)}, false, false
		case *types.TypeName, nil:
			return nil, false, false
		default:
			return nil, false, true
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: its body is already attributed
		// to the enclosing function by the walk.
		return nil, false, false
	default:
		if tv, ok := pkg.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
			return nil, false, false // conversion
		}
		return nil, false, true
	}
}

// implementations is the CHA fan-out: every module type whose method
// set satisfies iface contributes its concrete method. Results are
// cached and sorted.
func (m *Module) implementations(iface *types.Interface, method *types.Func) []string {
	key := iface.String() + "\x00" + method.Name()
	if got, ok := m.implCache[key]; ok {
		return got
	}
	seen := map[string]bool{}
	var ids []string
	for _, named := range m.named {
		var recv types.Type
		if types.Implements(named, iface) {
			recv = named
		} else if p := types.NewPointer(named); types.Implements(p, iface) {
			recv = p
		} else {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, method.Pkg(), method.Name())
		if fn, ok := obj.(*types.Func); ok {
			id := FuncID(fn)
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	sort.Strings(ids)
	m.implCache[key] = ids
	return ids
}

// inspectStack is ast.Inspect with an ancestor stack (stack excludes n
// itself; stack[len-1] is n's parent).
func inspectStack(root ast.Node, f func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !f(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// coldSite reports whether n sits in an early-exit conditional branch:
// the innermost enclosing if/case/select-clause body whose statement
// list terminates in a return or panic, before any enclosing loop or
// function boundary. `if err != nil { return ...fmt.Errorf... }` is the
// canonical cold shape — allocation there happens once per failure,
// not once per page, so it does not disprove hotpath allocation
// freedom (and faulterrors *requires* the wrap allocation).
func coldSite(n ast.Node, stack []ast.Node) bool {
	child := ast.Node(n)
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncDecl, *ast.FuncLit:
			return false
		case *ast.IfStmt:
			if child == ast.Node(s.Body) && terminatesEarly(s.Body.List) {
				return true
			}
			if blk, ok := s.Else.(*ast.BlockStmt); ok && child == ast.Node(blk) && terminatesEarly(blk.List) {
				return true
			}
		case *ast.CaseClause:
			if terminatesEarly(s.Body) {
				return true
			}
		case *ast.CommClause:
			if terminatesEarly(s.Body) {
				return true
			}
		}
		child = stack[i]
	}
	return false
}

// terminatesEarly reports whether a branch body ends in return or a
// terminating call (panic, t.Fatal, os.Exit, ...).
func terminatesEarly(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		return isTerminatingCall(last.X)
	default:
		return false
	}
}

// lockOp classifies a call as a mutex acquire/release and names the
// lock. Lock identity is normalized to the owning type and field
// ("server.Server.mu") — two instances of the same field are one lock
// for ordering purposes, which is the useful granularity for a
// consistent-order discipline (and errs toward reporting).
func lockOp(pkg *Package, fi *FuncInfo, call *ast.CallExpr) (id string, acquire, release bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		release = true
	default:
		return "", false, false
	}
	s, ok := pkg.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return "", false, false
	}
	recv := s.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", false, false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", false, false
	}
	return lockID(pkg, fi, sel.X), acquire, release
}

// lockID names the mutex: "pkgname.Owner.field" for a struct field,
// "pkgname.Func.var" for a function-local mutex.
func lockID(pkg *Package, fi *FuncInfo, expr ast.Expr) string {
	switch e := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if t := pkg.TypesInfo.Types[e.X].Type; t != nil {
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return pkg.Types.Name() + "." + named.Obj().Name() + "." + e.Sel.Name
			}
		}
		return pkg.Types.Name() + "." + exprString(e)
	case *ast.Ident:
		return pkg.Types.Name() + "." + fi.Obj.Name() + "." + e.Name
	default:
		return pkg.Types.Name() + "." + exprString(expr)
	}
}
