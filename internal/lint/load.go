package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader loads and type-checks packages of one Go module from source.
// It resolves intra-module imports itself and standard-library imports
// through the GOROOT source importer, so it needs neither a build cache
// nor network access. The module must be dependency-free (true for
// dana), which is exactly what lets the loader stay ~200 lines.
type Loader struct {
	// Root is the module root directory (where go.mod lives).
	Root string

	// ModulePath is the module's import-path prefix ("dana").
	ModulePath string

	// IncludeTests analyzes _test.go files too: in-package test files
	// augment their package; external `package foo_test` files form
	// their own package. Import resolution always uses the plain
	// (non-test) package, so test-only import edges cannot create
	// cycles.
	IncludeTests bool

	fset *token.FileSet
	std  types.ImporterFrom

	mu      sync.Mutex
	plain   map[string]*plainEntry
	loading map[string]bool
}

type plainEntry struct {
	pkg  *Package
	err  error
	done bool
}

// NewLoader locates the module root at or above dir and prepares a
// loader for it.
func NewLoader(dir string) (*Loader, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", dir)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("lint: source importer unavailable")
	}
	return &Loader{
		Root:       root,
		ModulePath: modPath,
		fset:       fset,
		std:        std,
		plain:      map[string]*plainEntry{},
		loading:    map[string]bool{},
	}, nil
}

// Load expands the patterns ("./...", "./internal/foo", "dana/...",
// absolute or relative directories) and returns the analysis packages,
// sorted by import path. Directories named testdata are skipped by
// `...` expansion but can be loaded by naming them directly (fixture
// packages for analyzer tests).
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		got, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, got...)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].PkgPath < pkgs[j].PkgPath })
	return pkgs, nil
}

// expand resolves patterns to directories holding Go files.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutPrefix(pat, l.ModulePath); ok && (rest == "" || rest[0] == '/') {
			pat = "." + rest
		}
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.Root, dir)
		}
		if !recursive {
			add(dir)
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// loadDir builds the analysis packages for one directory: the package
// itself (augmented with in-package test files when IncludeTests), plus
// an external test package when one exists.
func (l *Loader) loadDir(dir string) ([]*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, nogo := err.(*build.NoGoError); nogo {
			return nil, nil
		}
		return nil, fmt.Errorf("lint: %s: %w", dir, err)
	}
	pkgPath := l.pkgPathFor(dir)
	var pkgs []*Package
	if !l.IncludeTests || len(bp.TestGoFiles) == 0 {
		plain, err := l.loadPlain(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, plain)
	} else {
		files := append(append([]string{}, bp.GoFiles...), bp.TestGoFiles...)
		aug, err := l.typeCheck(pkgPath, dir, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, aug)
	}
	if l.IncludeTests && len(bp.XTestGoFiles) > 0 {
		xt, err := l.typeCheck(pkgPath+"_test", dir, bp.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, xt)
	}
	return pkgs, nil
}

// pkgPathFor synthesizes the import path for a directory: module-rooted
// when inside the module, "fixture:"-prefixed otherwise (testdata).
func (l *Loader) pkgPathFor(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "fixture:" + filepath.Base(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	rel = filepath.ToSlash(rel)
	if strings.Contains(rel, "testdata/") {
		return "fixture:" + rel
	}
	return l.ModulePath + "/" + rel
}

// loadPlain loads and caches the non-test package of a directory; it is
// both an analysis target and the import-resolution unit.
func (l *Loader) loadPlain(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	l.mu.Lock()
	if ent, ok := l.plain[dir]; ok && ent.done {
		l.mu.Unlock()
		return ent.pkg, ent.err
	}
	if l.loading[dir] {
		l.mu.Unlock()
		return nil, fmt.Errorf("lint: import cycle through %s", dir)
	}
	l.loading[dir] = true
	l.mu.Unlock()

	bp, err := build.ImportDir(dir, 0)
	var pkg *Package
	if err != nil {
		err = fmt.Errorf("lint: %s: %w", dir, err)
	} else {
		pkg, err = l.typeCheck(l.pkgPathFor(dir), dir, bp.GoFiles)
	}

	l.mu.Lock()
	l.plain[dir] = &plainEntry{pkg: pkg, err: err, done: true}
	delete(l.loading, dir)
	l.mu.Unlock()
	return pkg, err
}

// typeCheck parses and type-checks one file set as a package.
func (l *Loader) typeCheck(pkgPath, dir string, fileNames []string) (*Package, error) {
	sort.Strings(fileNames)
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Implicits:  map[ast.Node]types.Object{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: &moduleImporter{l: l, dir: dir},
		Error:    func(error) {}, // keep going; first error returned below
	}
	tpkg, err := conf.Check(pkgPath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", pkgPath, err)
	}
	return &Package{
		PkgPath:   pkgPath,
		Dir:       dir,
		Fset:      l.fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// moduleImporter resolves imports: module-internal paths load from
// source through the Loader, everything else (the standard library)
// goes through the GOROOT source importer.
type moduleImporter struct {
	l   *Loader
	dir string
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if rest, ok := strings.CutPrefix(path, m.l.ModulePath); ok && (rest == "" || rest[0] == '/') {
		pkg, err := m.l.loadPlain(filepath.Join(m.l.Root, filepath.FromSlash(rest)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return m.l.std.ImportFrom(path, m.dir, 0)
}
