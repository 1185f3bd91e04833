package dana_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
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

// harness lists the packages production never imports (TestLayerOrder):
// the experiment harness, the linter, and testOnly's packages. With
// bench/, its own module, they are the non-production packages the
// type-checked checks below skip.
var harness = []string{
	"dana/internal/experiments", "dana/internal/lint", "dana/internal/verify",
	"dana/internal/fuzzcorpus", "dana/internal/golden", "dana/internal/backend/backendtest",
}

// harnessBinaries are the commands built on a harness package — danabench
// runs internal/experiments, danalint internal/lint — so their imports are
// not production's.
var harnessBinaries = map[string]bool{"dana/cmd/danabench": true, "dana/cmd/danalint": true}

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
	settings     map[string]string   // uncalledSettings
	observations map[string]string   // observationNames
	obsDir       string              // internal/obs's directory
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
	f.settings = uncalledSettings(pkgs, isProduction)
	f.observations, f.obsDir = observationNames(pkgs, "dana/internal/obs")
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

// TestLayerOrder pins the dependency direction: no production package —
// every package `go list ./...` names but the harness and its binaries,
// the root and the other commands included — imports a harness package,
// even transitively. `go list`'s transitive Deps are the whole mechanism:
// re-importing experiments from server, or golden from backend, fails
// here, and so does a planted command that reaches golden through a
// planted production package.
func TestLayerOrder(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Deps " "}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	listing := strings.Split(strings.TrimSpace(string(out)), "\n")
	checked := 0
	for _, line := range listing {
		if pkg := strings.Fields(line)[0]; pkg == "dana" || pkg == "dana/cmd/danactl" || pkg == "dana/cmd/danasrv" {
			checked++
		}
	}
	if checked != 3 {
		t.Fatalf("go list ./... names %d of dana, cmd/danactl and cmd/danasrv", checked)
	}
	for _, v := range harnessImports(listing) {
		t.Error(v)
	}

	planted := append(listing[:len(listing):len(listing)],
		"dana/internal/planted dana/internal/golden dana/internal/algos",
		"dana/cmd/planted dana/internal/planted dana/internal/golden dana/internal/algos")
	got := harnessImports(planted)
	if len(got) != 2 || !strings.Contains(got[0]+got[1], "dana/cmd/planted depends on harness package dana/internal/golden") {
		t.Errorf("a planted command reaching golden through a planted package reads %q", got)
	}
}

// harnessImports reports every production package of a `go list`
// listing (each line a package and its transitive dependencies) that
// depends on a harness package.
func harnessImports(listing []string) []string {
	isHarness := map[string]bool{}
	for _, h := range harness {
		isHarness[h] = true
	}
	var out []string
	for _, line := range listing {
		f := strings.Fields(line)
		if isHarness[f[0]] || harnessBinaries[f[0]] {
			continue
		}
		for _, dep := range f[1:] {
			if isHarness[dep] {
				out = append(out, fmt.Sprintf("production package %s depends on harness package %s", f[0], dep))
			}
		}
	}
	return out
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
// keeps it (ROADMAP item 13: a caller, a paper capability, or a safety
// hook — otherwise it is deleted, not parked). Keys are pkg.Func and
// pkg.Type.Method.
var unreferencedOK = map[string]string{
	"catalog.ExportAccelerator":      "paper capability: an accelerator is catalog metadata that outlives the process (§4)",
	"catalog.ImportAccelerator":      "paper capability: the reader of ExportAccelerator's format",
	"bufpool.Pool.PinnedCount":       "safety hook: every pin-leak check (chaos, executor, failover) reads it",
	"fault.Injector.TotalCount":      "safety hook: the chaos suites assert on how many faults fired",
	"storage.InnoPage.Records":       "reference: the InnoDB record walk Oracle A and the InnoDB walker's tests compare against",
	"strider.VM.Steps":               "reference: the instructions the program retires, which Oracle E holds the walk's Steps to",
	"storage.WeaveDequantize":        "reference: the scalar dequantisation the weave decode kernels are held equal to, bit for bit",
	"storage.Relation.Validate":      "safety hook: checks every page's invariants after a fault or a vacuum",
	"storage.Page.SetLinePointer":    "safety hook: the only way to fabricate the LP_REDIRECT state that scans must skip",
	"storage.CheckWeaveSchema":       "input check: the weave layout's admission rule, which the backend's class gate is pinned to",
	"runtime.workerError.Unwrap":     "implements the errors.Unwrap protocol (errors.Is through workerError)",
	"obs.Registry.Reset":             apiSurface, // Engine.Obs(): the one way to zero a long-lived engine's counters between runs
	"fault.Injector.Count":           apiSurface, // dana.FaultInjector
	"fault.Injector.Reset":           apiSurface,
	"catalog.Catalog.Tables":         apiSurface, // Engine.Catalog()
	"catalog.Catalog.UDFs":           apiSurface,
	"dsl.Algo.Consumers":             apiSurface, // dana.Algo
	"storage.Relation.TuplesPerPage": apiSurface, // Dataset.Rel
	"storage.Relation.SizeBytes":     apiSurface,
	"storage.Relation.Get":           apiSurface, // the reader of the TID Relation.Insert returns
	"storage.Relation.Delete":        apiSurface,
	"storage.Relation.Vacuum":        apiSurface,
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
// interface, or through fmt, sort, errors). Exempt by package: bench/
// (its own module), the root package (the public API), and testOnly's
// internal/verify (oracles) and internal/fuzzcorpus (the fuzz targets'
// corpus writers), whose references count as test references too: a
// production function only an oracle calls is test-only. An entry that
// keeps a package-level function of an internal/ package as "public
// API" fails too: only the module can import that package, so no
// outside caller exists. The check is shown to fail on a planted
// function only a planted verify package calls, and on a planted
// "public API" entry for it.
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
	for _, name := range internalAPIClaims(unreferencedOK, unused) {
		t.Errorf("unreferencedOK keeps %s, a function of an internal package, as public API: nothing outside the module can call it", name)
	}

	prod := plantPackage(t, "dana/internal/planted", `package planted
func init() { used() }
func used() {}
func OnlyVerify() {}
`, nil)
	verify := plantPackage(t, "dana/internal/verify", `package verify
import "dana/internal/planted"
func Check() { planted.OnlyVerify() }
`, plantedImports{"dana/internal/planted": prod.Types})
	got := unreferencedFuncs(&lint.Loader{ModulePath: "dana"}, []*lint.Package{prod, verify})
	if len(got) != 1 || got["planted.OnlyVerify"] == "" {
		t.Errorf("a planted production function only a planted verify package calls reads %v", got)
	}
	planted := map[string]string{"planted.OnlyVerify": "public API: for tools outside the module"}
	if claims := internalAPIClaims(planted, got); len(claims) != 1 || claims[0] != "planted.OnlyVerify" {
		t.Errorf("a planted public-API entry for an internal package's function reads %v", claims)
	}
}

// internalAPIClaims lists the entries of ok whose reason claims
// "public API" for a package-level function (pkg.Func) that unused
// places in an internal/ package.
func internalAPIClaims(ok, unused map[string]string) []string {
	var claims []string
	for name, why := range ok {
		if strings.Count(name, ".") == 1 && strings.Contains(why, "public API") && strings.Contains(filepath.ToSlash(unused[name]), "internal/") {
			claims = append(claims, name)
		}
	}
	return claims
}

// settingsOK is the whole list of settings that may stay although no
// non-test file outside bench/ both writes and reads them, each with
// what keeps it. Keys are pkg.Type.Field.
var settingsOK = map[string]string{
	"fault.Config.StallDuration":     "the chaos suites set it to exercise worker stalls",
	"fault.Config.LatencySpikeSec":   "the chaos suites set it to exercise pool latency spikes",
	"server.LoadConfig.Workloads":    "tests size their loads with it",
	"dana.Config.Faults":             "public API: attaches the seeded fault schedule a chaos run trains under",
	"dana.Config.EpochTimeout":       "public API: the only bound on an epoch's wall-clock time, as Train takes no context",
	"dana.Config.DisableCPUFallback": "public API: a typed error in place of a degraded model, which TrainResult cannot flag as an error",
}

// TestEverySettingHasACaller fails when a setting — an exported field of
// an exported production struct type named *Config, *Options or
// *Params, or Env, Quota, ChannelModel or FPGA — is not both written and
// read by some non-test file, and is not on settingsOK. An unwritten
// setting is a configuration nothing runs; an unread one claims an
// effect it does not have. A write is a composite-literal key, an
// assignment, ++ or an op-assignment, taking the field's address, or an
// element write x.F[i] = …; a default fill, if x.F <cmp> … { x.F = … },
// is not one. The check is shown to fail on a planted setting only a
// default fill writes, and on one only a _test.go file writes.
func TestEverySettingHasACaller(t *testing.T) {
	found := loadFacts(t).settings
	for name, what := range found {
		if settingsOK[name] == "" {
			t.Errorf("setting %s is %s outside tests: delete it, or list it in settingsOK with its reason", name, what)
		}
	}
	for name := range settingsOK {
		if found[name] == "" {
			t.Errorf("settingsOK lists %s, which is now set and read, or gone: drop the entry", name)
		}
	}

	planted := `package planted
type Config struct{ Set, Unset int }
func use(c Config) int {
	if c.Unset == 0 {
		c.Unset = 4
	}
	return Config{Set: 1}.Set + c.Set + c.Unset
}
`
	pkg := plantPackage(t, "planted", planted, nil)
	got := uncalledSettings([]*lint.Package{pkg}, func(*lint.Package) bool { return true })
	if len(got) != 1 || got["planted.Config.Unset"] != "never written" {
		t.Errorf("a planted setting only a default fill writes reads %v", got)
	}

	// A setting only a test writes is loaded the way readFacts loads the
	// module, from a planted module of its own.
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":         "module planted\n",
		"config.go":      "package planted\ntype Config struct{ Tuned int }\nfunc Use(c Config) int { return c.Tuned }\n",
		"config_test.go": "package planted\nfunc tuned() int { return Use(Config{Tuned: 3}) }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	got = uncalledSettings(pkgs, isProduction)
	if len(got) != 1 || got["planted.Config.Tuned"] != "never written" {
		t.Errorf("a planted setting only a _test.go file writes reads %v", got)
	}
}

// observedOK is the whole list of observation names that may stay
// although no test outside internal/obs reads them and no BENCH modeled
// section pins them, each with what keeps it. Keys are obs.Name.
var observedOK = map[string]string{}

// modeledFiles are the CI bench gate's baselines: a name whose value is a
// key of their "modeled" sections is pinned there, exactly.
var modeledFiles = []string{"BENCH_baseline.json", "BENCH_server_baseline.json"}

// TestEveryObservationIsRead fails when an exported constant of
// internal/obs/names.go is read by nothing that checks it: no _test.go
// file outside internal/obs selects it (obs.Name), its value is no key
// of a BENCH modeled section, and it is not on observedOK. An emitted
// name nothing reads cannot be trusted to say where time went: delete
// it, or give it a check. The check is shown to fail on a planted name
// that production emits and only obs's own tests read.
func TestEveryObservationIsRead(t *testing.T) {
	f := loadFacts(t)
	reads, err := testReads(".", "dana/internal/obs", f.obsDir)
	if err != nil {
		t.Fatal(err)
	}
	modeled := map[string]bool{}
	for _, file := range modeledFiles {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var base struct{ Modeled map[string]json.RawMessage }
		if err := json.Unmarshal(data, &base); err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for k := range base.Modeled {
			modeled[k] = true
		}
	}
	unread := unreadObservations(f.observations, reads, modeled)
	for name, value := range unread {
		if observedOK[name] == "" {
			t.Errorf("%s (%q) is read by no test outside internal/obs and pinned by no BENCH modeled section: delete it, give it a check, or list it in observedOK with its reason", name, value)
		}
	}
	for name := range observedOK {
		if unread[name] == "" {
			t.Errorf("observedOK lists %s, which is now read, pinned or gone: drop the entry", name)
		}
	}

	// The planted module's obs package emits three names: one a test
	// reads, one a modeled section pins, and one only obs's own test reads.
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":            "module planted\n",
		"obs/names.go":      "package obs\nconst (\n\tRead = \"p.read\"\n\tPinned = \"p.pinned\"\n\tUnread = \"p.unread\"\n)\n",
		"obs/emit.go":       "package obs\nfunc Emit() []string { return []string{Read, Pinned, Unread} }\n",
		"obs/names_test.go": "package obs_test\nimport \"planted/obs\"\nvar _ = obs.Unread\n",
		"user/user_test.go": "package user\nimport o \"planted/obs\"\nvar _ = o.Read\n",
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	names, obsDir := observationNames(pkgs, "planted/obs")
	if reads, err = testReads(dir, "planted/obs", obsDir); err != nil {
		t.Fatal(err)
	}
	got := unreadObservations(names, reads, map[string]bool{"p.pinned": true})
	if len(got) != 1 || got["obs.Unread"] != "p.unread" {
		t.Errorf("a planted name only obs's own test reads, among %v, reads %v", names, got)
	}
}

// observationNames maps each exported constant of the names.go file of
// package obsPath among pkgs, keyed obs.Name, to its value, and returns
// the package's directory.
func observationNames(pkgs []*lint.Package, obsPath string) (map[string]string, string) {
	names := map[string]string{}
	for _, pkg := range pkgs {
		if pkg.PkgPath != obsPath {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			c, ok := scope.Lookup(name).(*types.Const)
			if ok && c.Exported() && filepath.Base(pkg.Fset.Position(c.Pos()).Filename) == "names.go" {
				names[pkg.Types.Name()+"."+name] = constant.StringVal(c.Val())
			}
		}
		return names, pkg.Dir
	}
	return names, ""
}

// testReads returns the identifiers of package obsPath, keyed obs.Name,
// that some _test.go file under root, outside obsDir and testdata,
// selects through its import of the package.
func testReads(root, obsPath, obsDir string) (map[string]bool, error) {
	obsDir, err := filepath.Abs(obsDir)
	if err != nil {
		return nil, err
	}
	reads := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			abs, err := filepath.Abs(path)
			if err != nil {
				return err
			}
			if abs == obsDir || d.Name() == "testdata" || (path != root && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, "`\"") != obsPath {
				continue
			}
			local := obsPath[strings.LastIndex(obsPath, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if se, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := se.X.(*ast.Ident); ok && id.Name == local {
						reads["obs."+se.Sel.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	return reads, err
}

// unreadObservations returns the names, with their values, that no test
// reads and no modeled section pins.
func unreadObservations(names map[string]string, reads, modeled map[string]bool) map[string]string {
	out := map[string]string{}
	for name, value := range names {
		if !reads[name] && !modeled[value] {
			out[name] = value
		}
	}
	return out
}

// plantedImports resolves a planted package's imports among the
// packages planted before it.
type plantedImports map[string]*types.Package

func (m plantedImports) Import(path string) (*types.Package, error) {
	if p := m[path]; p != nil {
		return p, nil
	}
	return nil, fmt.Errorf("no planted package %q", path)
}

// plantPackage parses and type-checks src as the one file of package
// path, its imports resolved by imp, for a check's planted leg.
func plantPackage(t *testing.T, path, src string, imp plantedImports) *lint.Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path+"/planted.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &lint.Package{PkgPath: path, Fset: fset, Files: []*ast.File{f}, TypesInfo: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{},
		Defs: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	if pkg.Types, err = (&types.Config{Importer: imp}).Check(path, fset, pkg.Files, pkg.TypesInfo); err != nil {
		t.Fatal(err)
	}
	return pkg
}

// isSetting reports whether an exported struct type's name puts its
// exported fields in TestEverySettingHasACaller's scope.
func isSetting(name string) bool {
	switch name {
	case "Env", "Quota", "ChannelModel", "FPGA":
		return true
	}
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Params")
}

// uncalledSettings maps each setting of the packages inScope selects
// that pkgs' files do not both write and read to what it lacks: "never
// written", "never read" or "never written or read".
func uncalledSettings(pkgs []*lint.Package, inScope func(*lint.Package) bool) map[string]string {
	names := map[*types.Var]string{}
	for _, pkg := range pkgs {
		if !inScope(pkg) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !isSetting(name) {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						names[f] = pkg.Types.Name() + "." + name + "." + f.Name()
					}
				}
			}
		}
	}
	written, read := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, pkg := range pkgs {
		field := func(e ast.Expr) *types.Var {
			if se, ok := e.(*ast.SelectorExpr); ok {
				if sel := pkg.TypesInfo.Selections[se]; sel != nil && sel.Kind() == types.FieldVal {
					return sel.Obj().(*types.Var)
				}
			}
			return nil
		}
		for _, f := range pkg.Files {
			// writes holds the selectors that are written, not read;
			// fills the default fills' assignments, neither.
			writes, fills := map[*ast.SelectorExpr]bool{}, map[*ast.SelectorExpr]bool{}
			lhs := func(e ast.Expr) {
				for {
					switch x := e.(type) {
					case *ast.SelectorExpr:
						writes[x] = true
						e = x.X
					case *ast.IndexExpr:
						e = x.X
					case *ast.ParenExpr:
						e = x.X
					case *ast.StarExpr:
						e = x.X
					default:
						return
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						lhs(e)
					}
				case *ast.IncDecStmt:
					lhs(n.X)
				case *ast.UnaryExpr:
					if v := field(n.X); n.Op == token.AND && v != nil {
						written[v] = true // and read, through the pointer
					}
				case *ast.CompositeLit:
					st, isStruct := pkg.TypesInfo.Types[n].Type.Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if !isStruct {
							break
						}
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							written[pkg.TypesInfo.Uses[kv.Key.(*ast.Ident)].(*types.Var)] = true
						} else {
							written[st.Field(i)] = true
						}
					}
				case *ast.IfStmt:
					cmp, ok := n.Cond.(*ast.BinaryExpr)
					if !ok || !(cmp.Op == token.EQL || cmp.Op == token.NEQ || cmp.Op == token.LSS ||
						cmp.Op == token.LEQ || cmp.Op == token.GTR || cmp.Op == token.GEQ) {
						return true
					}
					for _, st := range n.Body.List {
						as, ok := st.(*ast.AssignStmt)
						if !ok || len(as.Lhs) != 1 || field(as.Lhs[0]) == nil {
							continue
						}
						for _, op := range []ast.Expr{cmp.X, cmp.Y} {
							if call, ok := op.(*ast.CallExpr); ok && len(call.Args) == 1 && types.ExprString(call.Fun) == "len" {
								op = call.Args[0]
							}
							if field(op) == field(as.Lhs[0]) && types.ExprString(op) == types.ExprString(as.Lhs[0]) {
								fills[as.Lhs[0].(*ast.SelectorExpr)] = true
							}
						}
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if se, ok := n.(*ast.SelectorExpr); ok {
					if v := field(se); v != nil && !fills[se] {
						if writes[se] {
							written[v] = true
						} else {
							read[v] = true
						}
					}
				}
				return true
			})
		}
	}
	out := map[string]string{}
	for v, name := range names {
		switch {
		case !written[v] && !read[v]:
			out[name] = "never written or read"
		case !written[v]:
			out[name] = "never written"
		case !read[v]:
			out[name] = "never read"
		}
	}
	return out
}

// testOnly are the packages only tests (and the experiment harness)
// import, module-relative: their functions are exempt from
// TestNoTestOnlyProductionFunctions, their references are test
// references, and their calls drive no seam method.
var testOnly = map[string]bool{
	"internal/verify": true, "internal/fuzzcorpus": true, "internal/golden": true, "internal/backend/backendtest": true,
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
			if fn, ok := obj.(*types.Func); ok && !testOnly[strings.TrimPrefix(pkg.PkgPath, l.ModulePath+"/")] {
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
		if rel := strings.TrimPrefix(pkg.PkgPath, l.ModulePath+"/"); pkg.PkgPath == l.ModulePath || rel == "bench" || testOnly[rel] {
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
// call site in a non-test file outside testOnly's packages (the
// conformance harness, internal/backend/backendtest, calls every method
// by design):
// the seam holds only what production drives. A call counts when its
// receiver is a Backend, a type that implements one, or an interface a
// Backend satisfies (greenplum's segments call their *backend.CPU inners).
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
	called := map[string]bool{}
	for _, pkg := range pkgs {
		if testOnly[strings.TrimPrefix(pkg.PkgPath, l.ModulePath+"/")] {
			continue
		}
		for _, f := range pkg.Files {
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
