package dana_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestEveryFuzzTargetRunsInCI: every fuzz target of the module (bench/ is
// its own module) is a row of ci.yml's fuzz-smoke matrix, with its
// package, and every row names a target that exists, so a new target
// cannot skip CI unnoticed. The planted leg shows an unlisted target in
// a test file is reported.
func TestEveryFuzzTargetRunsInCI(t *testing.T) {
	targets, err := fuzzTargets(".")
	if err != nil {
		t.Fatal(err)
	}
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	matrix := fuzzMatrix(string(yml))
	if len(targets) == 0 || len(matrix) == 0 {
		t.Fatalf("found %d fuzz targets and %d fuzz-smoke rows", len(targets), len(matrix))
	}
	for _, target := range unlistedTargets(targets, matrix) {
		t.Errorf("fuzz target %s is not in ci.yml's fuzz-smoke matrix: add a row", target)
	}
	for row := range matrix {
		if !slices.Contains(targets, row) {
			t.Errorf("ci.yml's fuzz-smoke row %s names no fuzz target: drop it", row)
		}
	}

	dir := t.TempDir()
	planted := filepath.Join(dir, "internal", "planted")
	if err := os.MkdirAll(planted, 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package planted\n\nimport \"testing\"\n\nfunc FuzzPlanted(f *testing.F) {}\n"
	if err := os.WriteFile(filepath.Join(planted, "planted_test.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := fuzzTargets(dir)
	if err != nil {
		t.Fatal(err)
	}
	if missing := unlistedTargets(got, matrix); len(missing) != 1 || missing[0] != "internal/planted FuzzPlanted" {
		t.Errorf("a planted unlisted fuzz target reads %v", missing)
	}
}

// fuzzTargets lists the fuzz targets declared in the _test.go files
// under root, outside nested modules and testdata, each as
// "<package dir> <target>".
func fuzzTargets(root string) ([]string, error) {
	var out []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") &&
				len(fd.Type.Params.List) == 1 && types.ExprString(fd.Type.Params.List[0].Type) == "*testing.F" {
				out = append(out, filepath.ToSlash(rel)+" "+fd.Name.Name)
			}
		}
		return nil
	})
	return out, err
}

// fuzzRow matches a fuzz-smoke matrix row: its target, then its package.
var fuzzRow = regexp.MustCompile(`- target: (\S+)\s+package: (\S+)`)

// fuzzMatrix reads ci.yml's fuzz-smoke job into the set of its rows,
// keyed as fuzzTargets lists targets.
func fuzzMatrix(yml string) map[string]bool {
	rows := map[string]bool{}
	start := strings.Index(yml, "\n  fuzz-smoke:\n")
	if start < 0 {
		return rows
	}
	job := yml[start+1:]
	if end := regexp.MustCompile(`\n  \S`).FindStringIndex(job); end != nil {
		job = job[:end[0]]
	}
	for _, m := range fuzzRow.FindAllStringSubmatch(job, -1) {
		rows[path.Clean(m[2])+" "+m[1]] = true
	}
	return rows
}

// unlistedTargets returns the targets the matrix has no row for.
func unlistedTargets(targets []string, matrix map[string]bool) []string {
	var out []string
	for _, target := range targets {
		if !matrix[target] {
			out = append(out, target)
		}
	}
	return out
}
