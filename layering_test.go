package dana_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"dana/internal/backend"
	"dana/internal/lint"
	"dana/internal/runtime"
)

// harness lists the packages production never imports (TestLayerOrder).
// With bench/, its own module, they are the non-production packages the
// type-checked checks below skip.
var harness = []string{"dana/internal/experiments", "dana/internal/verify", "dana/internal/lint"}

// isProduction reports whether a loaded package is production code.
func isProduction(pkg *lint.Package) bool {
	for _, h := range harness {
		if pkg.PkgPath == h {
			return false
		}
	}
	return pkg.PkgPath != "dana/bench" && !strings.HasPrefix(pkg.PkgPath, "dana/bench/")
}

// moduleFacts is what the type-checked root tests read off one load of
// the module's non-test files. The load is made once, reduced to these
// facts and dropped, so the tests that run after them do not carry its
// ≈ 40 MB of syntax trees and type information.
type moduleFacts struct {
	unreferenced map[string]string   // unreferencedFuncs
	undriven     []string            // undrivenSeamMethods
	goStmts      map[string][]string // production function -> its go statements' positions
	tenantVars   []string            // tenantStateVars
	backends     map[string]string   // production type implementing backend.Backend -> its position
}

var module struct {
	once  sync.Once
	facts moduleFacts
	err   error
}

func loadFacts(t *testing.T) *moduleFacts {
	t.Helper()
	module.once.Do(func() { module.facts, module.err = readFacts() })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return &module.facts
}

func readFacts() (f moduleFacts, err error) {
	l, err := lint.NewLoader(".")
	if err != nil {
		return f, err
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		return f, err
	}
	backendType, seam, err := seamOf(l, pkgs)
	if err != nil {
		return f, err
	}
	if f.tenantVars, err = tenantStateVars(pkgs); err != nil {
		return f, err
	}
	f.unreferenced = unreferencedFuncs(l, pkgs)
	f.undriven = undrivenSeamMethods(l, pkgs, backendType, seam)
	f.goStmts = goStatements(pkgs)
	f.backends = backendImpls(pkgs, seam)
	return f, nil
}

// funcKey names a function pkg.Func, a method pkg.Type.Method.
func funcKey(fn *types.Func) string {
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return fn.Pkg().Name() + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// TestLayerOrder pins the dependency direction: production packages
// never (transitively) import a harness package. `go list -deps` is the
// whole mechanism — re-importing experiments from server, or verify
// from backend, fails here.
func TestLayerOrder(t *testing.T) {
	production := []string{"runtime", "backend", "server", "greenplum", "cost", "engine", "accessengine", "storage", "bufpool"}
	for _, pkg := range production {
		out, err := exec.Command("go", "list", "-deps", "./internal/"+pkg).Output()
		if err != nil {
			t.Fatalf("go list -deps ./internal/%s: %v", pkg, err)
		}
		deps := strings.Fields(string(out))
		for _, h := range harness {
			for _, d := range deps {
				if d == h {
					t.Errorf("production package internal/%s depends on harness package %s", pkg, h)
				}
			}
		}
	}
}

// TestReferenceExecutorStaysOutOfProduction: the engine's macro
// interpreter (internal/engine/reference.go) is the oracle its lowered
// plan is diffed against; only tests and internal/verify may call it.
func TestReferenceExecutorStaysOutOfProduction(t *testing.T) {
	for _, dir := range []string{"internal/backend", "internal/runtime", "internal/server", "cmd/*"} {
		files, err := filepath.Glob(dir + "/*.go")
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files under %s (%v)", dir, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"RunBatchReference", "ConvergedReference", "TrainReference"} {
				if !strings.HasSuffix(f, "_test.go") && strings.Contains(string(src), name) {
					t.Errorf("%s names the reference executor (%s)", f, name)
				}
			}
		}
	}
}

// TestEngineIsSingleGoroutine: a Machine is single-goroutine by
// construction — the model threads are a modeled quantity, charged in
// closed form (§6.1), and the host runs them in one loop. Non-test files
// of internal/engine hold no go statement, no channel type and import
// neither runtime nor sync; the check is shown to fail on a planted fork.
func TestEngineIsSingleGoroutine(t *testing.T) {
	files, err := filepath.Glob("internal/engine/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files under internal/engine (%v)", err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, found := range hostConcurrency(t, f, string(src)) {
			t.Errorf("%s: %s", f, found)
		}
	}
	planted := "package engine\nfunc (m *Machine) fork() { go func() {}() }\n"
	if got := hostConcurrency(t, "planted.go", planted); len(got) != 1 || got[0] != "go statement" {
		t.Errorf("a planted go statement reads %q", got)
	}
}

// hostConcurrency lists what a source file holds of goroutines, channels
// and the packages that schedule them.
func hostConcurrency(t *testing.T, name, src string) []string {
	f, err := parser.ParseFile(token.NewFileSet(), name, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, imp := range f.Imports {
		if imp.Path.Value == `"runtime"` || imp.Path.Value == `"sync"` || strings.HasPrefix(imp.Path.Value, `"sync/`) {
			found = append(found, "imports "+imp.Path.Value)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.GoStmt:
			found = append(found, "go statement")
		case *ast.ChanType:
			found = append(found, "channel type")
		}
		return true
	})
	return found
}

// unreferencedOK is the whole list of functions that may stay in
// production although no non-test file references them, each with what
// keeps it (ROADMAP item 8: a caller, a paper capability, or a safety
// hook — otherwise it is deleted, not parked). Keys are pkg.Func and
// pkg.Type.Method.
var unreferencedOK = map[string]string{
	"accessengine.NewInnoDB":         "paper capability: the Strider ISA walks a second engine's pages (§5.1.2)",
	"catalog.ExportAccelerator":      "paper capability: an accelerator is catalog metadata that outlives the process (§4)",
	"catalog.ImportAccelerator":      "paper capability: the reader of ExportAccelerator's format",
	"bufpool.Pool.PinnedCount":       "safety hook: every pin-leak check (chaos, executor, failover) reads it",
	"fault.Injector.TotalCount":      "safety hook: the chaos suites assert on how many faults fired",
	"backend.ConformanceEnv":         "safety harness: the env of the conformance battery every backend's tests run",
	"backend.Check":                  "safety harness: the conformance battery itself, run per registration by the backend and greenplum tests",
	"engine.NewMicroMachine":         "reference executor: the micro-op schedule's oracle",
	"engine.MicroMachine.RunTuple":   "reference executor: NewMicroMachine's step",
	"engine.MicroMachine.SetModel":   "reference executor: NewMicroMachine's input",
	"engine.MicroMachine.Model":      "reference executor: NewMicroMachine's output",
	"storage.CheckWeaveSchema":       "input check: the weave layout's admission rule, which the backend's class gate is pinned to",
	"runtime.workerError.Unwrap":     "implements the errors.Unwrap protocol (errors.Is through workerError)",
	"obs.ParseSnapshot":              "public API: reads the snapshot JSON that Engine.Obs() and `danactl stats -json` export, for tools outside the module",
	"obs.Registry.Reset":             apiSurface, // Engine.Obs(): the one way to zero a long-lived engine's counters between runs
	"fault.Injector.Count":           apiSurface, // dana.FaultInjector
	"fault.Injector.Reset":           apiSurface,
	"catalog.Catalog.Tables":         apiSurface, // Engine.Catalog()
	"catalog.Catalog.UDFs":           apiSurface,
	"dsl.Algo.Consumers":             apiSurface, // dana.Algo
	"storage.Relation.TuplesPerPage": apiSurface, // Dataset.Rel
	"storage.Relation.SizeBytes":     apiSurface,
	"storage.Relation.Get":           apiSurface, // the reader of the TID Relation.Insert returns
	"storage.Page.FreeSpace":         apiSurface, // the pages Engine.Pool() pins
	"storage.Page.Version":           apiSurface,
	"storage.Page.LSN":               apiSurface,
	"storage.Page.SetLSN":            apiSurface,
}

const apiSurface = "public API: a method of a type the dana package hands out, pinned by its own test"

// TestNoTestOnlyProductionFunctions fails when a function declared in a
// non-test file has no reference from any non-test file and is not on
// unreferencedOK. The match is by type-checked object (internal/lint's
// loader), so a method is told from its homonyms on other types: it is
// referenced when a non-test file names it, or when its receiver
// implements an interface — the module's or the standard library's —
// that has a method of its name (the call then goes through the
// interface, or through fmt, sort, errors). Exempt by directory: bench/
// (its own module), the root package (the public API), internal/verify
// (oracles: their callers are tests by design) and internal/fuzzcorpus
// (the fuzz targets' corpus writers).
func TestNoTestOnlyProductionFunctions(t *testing.T) {
	unused := loadFacts(t).unreferenced
	for name, pos := range unused {
		if unreferencedOK[name] == "" {
			t.Errorf("%s: %s has no non-test reference: delete it, or list it in unreferencedOK with its reason", pos, name)
		}
	}
	for name := range unreferencedOK {
		if unused[name] == "" {
			t.Errorf("unreferencedOK lists %s, which is now referenced or gone: drop the entry", name)
		}
	}
}

// unreferencedFuncs returns the non-exempt functions and methods of the
// module's non-test files that nothing in them references, keyed as
// unreferencedOK is, with their positions.
func unreferencedFuncs(l *lint.Loader, pkgs []*lint.Package) map[string]string {
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	std := map[*types.Package]bool{}
	var visitStd func(p *types.Package)
	visitStd = func(p *types.Package) {
		if std[p] || p.Path() == l.ModulePath || strings.HasPrefix(p.Path(), l.ModulePath+"/") {
			return
		}
		std[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
					if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			visitStd(q)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, pkg := range pkgs {
		for _, obj := range pkg.TypesInfo.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
		for e, tv := range pkg.TypesInfo.Types {
			if _, ok := e.(*ast.InterfaceType); ok && tv.IsType() {
				if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range pkg.Types.Imports() {
			visitStd(q)
		}
	}
	// recvType is a method's receiver type with any pointer stripped.
	recvType := func(fn *types.Func) types.Type {
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		return recv
	}
	viaInterface := func(fn *types.Func) bool {
		recv := recvType(fn)
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}
	unused := map[string]string{}
	for _, pkg := range pkgs {
		rel, _ := filepath.Rel(l.Root, pkg.Dir)
		switch filepath.ToSlash(rel) {
		case ".", "bench", "internal/verify", "internal/fuzzcorpus":
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "main" || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				fn := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				if used[fn] || fn.Type().(*types.Signature).Recv() != nil && viaInterface(fn) {
					continue
				}
				unused[funcKey(fn)] = pkg.Fset.Position(fd.Pos()).String()
			}
		}
	}
	return unused
}

// TestBackendSeamIsDriven fails when a method of backend.Backend has no
// call site in a non-test file other than the conformance harness
// (internal/backend/conformance.go, which calls every method by design):
// the seam holds only what production drives. A call counts when its
// receiver is a Backend, a type that implements one, or an interface a
// Backend satisfies (greenplum's segments run through backend.Trainer).
func TestBackendSeamIsDriven(t *testing.T) {
	for _, name := range loadFacts(t).undriven {
		t.Errorf("backend.Backend.%s has no call site outside the conformance harness: take it out of the seam", name)
	}
}

// seamOf finds backend.Backend among the loaded packages.
func seamOf(l *lint.Loader, pkgs []*lint.Package) (types.Type, *types.Interface, error) {
	for _, pkg := range pkgs {
		if pkg.PkgPath == l.ModulePath+"/internal/backend" {
			if obj := pkg.Types.Scope().Lookup("Backend"); obj != nil {
				if seam, ok := obj.Type().Underlying().(*types.Interface); ok {
					return obj.Type(), seam, nil
				}
			}
		}
	}
	return nil, nil, fmt.Errorf("no interface backend.Backend under %s", l.Root)
}

// undrivenSeamMethods returns the backend.Backend methods no non-test
// file calls, the harness aside.
func undrivenSeamMethods(l *lint.Loader, pkgs []*lint.Package, backendType types.Type, seam *types.Interface) []string {
	// reaches reports whether a method called on recv can run a Backend's.
	reaches := func(recv types.Type) bool {
		if it, ok := recv.Underlying().(*types.Interface); ok {
			return types.Implements(backendType, it)
		}
		return types.Implements(recv, seam) || types.Implements(types.NewPointer(recv), seam)
	}
	harness := filepath.Join(l.Root, "internal", "backend", "conformance.go")
	called := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if pkg.Fset.Position(f.Pos()).Filename == harness {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				se, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel := pkg.TypesInfo.Selections[se]; sel != nil && sel.Kind() == types.MethodVal && reaches(sel.Recv()) {
					called[sel.Obj().Name()] = true
				}
				return true
			})
		}
	}
	var undriven []string
	for i := 0; i < seam.NumMethods(); i++ {
		if name := seam.Method(i).Name(); !called[name] {
			undriven = append(undriven, name)
		}
	}
	return undriven
}

// goSites is the whole list of production functions that hold a go
// statement, each with the join it relies on. A goroutine is added with
// its join, here, or not at all.
var goSites = map[string]string{
	"runtime.epochRunner.extractPages": "W walkers, each signalling busy.Done per group and on exit; a deferred close + busy.Wait joins them on every return",
	"server.Server.execute":            "one goroutine per tenant, joined by wg.Wait before the results are read",
}

// TestProductionGoroutinesAreListed fails on a go statement in a
// production function goSites does not list, and on a goSites entry that
// no longer holds one. Keys are pkg.Func and pkg.Type.Method.
func TestProductionGoroutinesAreListed(t *testing.T) {
	goStmts := loadFacts(t).goStmts
	for name, at := range goStmts {
		if goSites[name] == "" {
			t.Errorf("%s: go statement in %s, which goSites does not list: join it and list it with its join", at[0], name)
		}
	}
	for name := range goSites {
		if goStmts[name] == nil {
			t.Errorf("goSites lists %s, which holds no go statement: drop the entry", name)
		}
	}
}

// goStatements maps each production function holding a go statement to
// the statements' positions.
func goStatements(pkgs []*lint.Package) map[string][]string {
	out := map[string][]string{}
	for _, pkg := range pkgs {
		if !isProduction(pkg) {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					name := funcKey(pkg.TypesInfo.Defs[fd.Name].(*types.Func))
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if g, ok := n.(*ast.GoStmt); ok {
							out[name] = append(out[name], pkg.Fset.Position(g.Pos()).String())
						}
						return true
					})
				}
			}
		}
	}
	return out
}

// TestTenantStateHasNoPackageVar: a tenant owns its runtime.System, obs
// registry and fault injector, so internal/server and internal/runtime
// declare no package-level var whose type can reach one — a var every
// tenant's goroutine would share.
func TestTenantStateHasNoPackageVar(t *testing.T) {
	for _, v := range loadFacts(t).tenantVars {
		t.Errorf("%s can reach a tenant's System, registry or injector", v)
	}
}

// tenantStateVars lists the package-level vars of internal/server and
// internal/runtime whose type can reach a *runtime.System, *obs.Registry
// or *fault.Injector. An interface other than error, a func (it may
// capture one) and a type parameter count as able to reach them.
func tenantStateVars(pkgs []*lint.Package) ([]string, error) {
	tenantState := map[string]bool{
		"dana/internal/runtime.System": true,
		"dana/internal/obs.Registry":   true,
		"dana/internal/fault.Injector": true,
	}
	errType := types.Universe.Lookup("error").Type()
	var reaches func(t types.Type, seen map[types.Type]bool) bool
	reaches = func(t types.Type, seen map[types.Type]bool) bool {
		if seen[t] {
			return false
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if t == errType {
				return false
			}
			if obj := t.Obj(); obj.Pkg() != nil && tenantState[obj.Pkg().Path()+"."+obj.Name()] {
				return true
			}
			return reaches(t.Underlying(), seen)
		case *types.Pointer:
			return reaches(t.Elem(), seen)
		case *types.Slice:
			return reaches(t.Elem(), seen)
		case *types.Array:
			return reaches(t.Elem(), seen)
		case *types.Chan:
			return reaches(t.Elem(), seen)
		case *types.Map:
			return reaches(t.Key(), seen) || reaches(t.Elem(), seen)
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if reaches(t.Field(i).Type(), seen) {
					return true
				}
			}
			return false
		case *types.Basic:
			return false
		default: // interface, func, type parameter
			return true
		}
	}
	var out []string
	checked := 0
	for _, pkg := range pkgs {
		if pkg.PkgPath != "dana/internal/server" && pkg.PkgPath != "dana/internal/runtime" {
			continue
		}
		checked++
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if v, ok := scope.Lookup(name).(*types.Var); ok && reaches(v.Type(), map[types.Type]bool{}) {
				out = append(out, fmt.Sprintf("%s: package-level var %s (%s)", pkg.Fset.Position(v.Pos()), name, v.Type()))
			}
		}
	}
	if checked != 2 {
		return nil, fmt.Errorf("loaded %d of internal/server and internal/runtime", checked)
	}
	return out, nil
}

// TestEveryBackendIsRegistered: the dispatcher, failover and the
// conformance suite see only registered backends, so every production
// type that implements backend.Backend must be the dynamic type of some
// registration's New(env), over the registrations runtime.New hands its
// dispatcher.
func TestEveryBackendIsRegistered(t *testing.T) {
	backends := loadFacts(t).backends
	if len(backends) == 0 {
		t.Fatal("no production type implements backend.Backend")
	}
	registered := map[string]bool{}
	for _, reg := range systemRegistrations(t) {
		rt := reflect.TypeOf(reg.New(backend.Env{}))
		if rt.Kind() == reflect.Pointer {
			rt = rt.Elem()
		}
		registered[rt.PkgPath()+"."+rt.Name()] = true
	}
	for name, pos := range backends {
		if !registered[name] {
			t.Errorf("%s: %s implements backend.Backend but no registration runtime.New assembles builds it", pos, name)
		}
	}
}

// backendImpls maps each production type implementing the seam, by
// import path and name, to its position.
func backendImpls(pkgs []*lint.Package, seam *types.Interface) map[string]string {
	out := map[string]string{}
	for _, pkg := range pkgs {
		if !isProduction(pkg) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if types.Implements(tn.Type(), seam) || types.Implements(types.NewPointer(tn.Type()), seam) {
				out[pkg.PkgPath+"."+name] = pkg.Fset.Position(tn.Pos()).String()
			}
		}
	}
	return out
}

// systemRegistrations reads the registrations off a fresh System's
// dispatcher, which runtime.New assembles and keeps unexported.
func systemRegistrations(t *testing.T) []backend.Registration {
	f := reflect.ValueOf(runtime.New(runtime.Options{})).Elem().FieldByName("disp")
	if !f.IsValid() || f.Type() != reflect.TypeOf((*backend.Dispatcher)(nil)) {
		t.Fatal("runtime.System keeps no *backend.Dispatcher in field disp")
	}
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface().(*backend.Dispatcher).Registrations()
}
