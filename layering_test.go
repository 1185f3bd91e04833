package dana_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLayerOrder pins the dependency direction: production packages
// never (transitively) import a harness package. `go list -deps` is the
// whole mechanism — re-importing experiments from server, or verify
// from backend, fails here.
func TestLayerOrder(t *testing.T) {
	production := []string{"runtime", "backend", "server", "greenplum", "cost", "engine", "accessengine", "storage", "bufpool"}
	harness := []string{"dana/internal/experiments", "dana/internal/verify", "dana/internal/lint"}
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

// unreferencedOK is the whole list of functions that may stay in
// production although no non-test file names them, each with what
// keeps it (ROADMAP item 6: a caller, a paper capability, or a safety
// hook — otherwise it is deleted, not parked).
var unreferencedOK = map[string]string{
	"NewInnoDB":         "paper capability: the Strider ISA walks a second engine's pages (§5.1.2)",
	"ExportAccelerator": "paper capability: an accelerator is catalog metadata that outlives the process (§4)",
	"ImportAccelerator": "paper capability: the reader of ExportAccelerator's format",
	"PinnedCount":       "safety hook: every pin-leak check (chaos, executor, failover) reads it",
	"TotalCount":        "safety hook: the chaos suites assert on how many faults fired",
	"ConformanceEnv":    "safety harness: the env of the conformance battery every backend's tests run",
	"NewMicroMachine":   "reference executor: the micro-op schedule's oracle",
	"RunTuple":          "reference executor: NewMicroMachine's step",
	"CheckWeaveSchema":  "input check: the weave layout's admission rule, which the backend's class gate is pinned to",
	"Import":            "implements go/types.Importer for the lint loader",
	"Unwrap":            "implements the errors.Unwrap protocol (errors.Is through workerError)",
	"ParseSnapshot":     "public API: reads the snapshot JSON that Engine.Obs() and `danactl stats -json` export, for tools outside the module",
	"Tables":            apiSurface, // Engine.Catalog()
	"UDFs":              apiSurface,
	"Consumers":         apiSurface, // dana.Algo
	"TuplesPerPage":     apiSurface, // Dataset.Rel
	"SizeBytes":         apiSurface,
	"FreeSpace":         apiSurface, // the pages Engine.Pool() pins
	"LSN":               apiSurface,
	"SetLSN":            apiSurface,
}

const apiSurface = "public API: a method of a type the dana package hands out, pinned by its own test"

// TestNoTestOnlyProductionFunctions fails when a function declared in a
// non-test file has no reference from any non-test file and is not on
// unreferencedOK. Matching is by name, so it under-reports; it exists so
// the sweep that emptied the list cannot silently regrow. Exempt by
// directory: bench/ (its own module), the root package (the public API),
// internal/verify (oracles: their callers are tests by design) and
// internal/fuzzcorpus (the fuzz targets' corpus writers).
func TestNoTestOnlyProductionFunctions(t *testing.T) {
	declared, used := map[string]string{}, map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && path != "." && (d.Name() == "testdata" || d.Name()[0] == '.') {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		exempt := dir == "." || dir == "bench" || dir == "internal/verify" || dir == "internal/fuzzcorpus"
		own := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				own[fn.Name] = true
				if name := fn.Name.Name; !exempt && name != "main" && name != "init" {
					declared[name] = path
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, path := range declared {
		if !used[name] && unreferencedOK[name] == "" {
			t.Errorf("%s: %s has no non-test reference: delete it, or list it in unreferencedOK with its reason", path, name)
		}
	}
	for name := range unreferencedOK {
		if used[name] || declared[name] == "" {
			t.Errorf("unreferencedOK lists %s, which is now referenced or gone: drop the entry", name)
		}
	}
}
