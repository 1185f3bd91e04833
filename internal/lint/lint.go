// Package lint is DAnA's in-tree static-analysis framework: a minimal,
// dependency-free reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus a module-aware package
// loader and an intra-function control-flow graph.
//
// It exists because the repo's correctness story rests on invariants the
// type system cannot express — every bufpool Pin paired with an Unpin on
// all paths, no wall-clock or map-order nondeterminism inside
// modeled-cycle packages, obs call sites that stay free under obs.Noop,
// and typed fault sentinels that survive wrapping. PRs 1–4 enforced
// those at runtime (chaos suite, invariant tests); this package moves
// them to compile time, the way the paper's static execution model moves
// performance estimation ahead of execution (§6.1).
//
// The framework is stdlib-only (go/ast, go/types, go/parser and the
// GOROOT source importer) so the analyzers build in hermetic
// environments without golang.org/x/tools. The API deliberately mirrors
// go/analysis so the suite can migrate to the upstream driver by
// swapping imports.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments (lowercase, no spaces).
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Run applies the analyzer to one package and reports findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzed package to an Analyzer's Run function.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Mod is the module-wide interprocedural view (call graph and
	// function summaries) shared by every pass of one RunAnalyzers
	// invocation. Interprocedural analyzers (hotcall, lockorder)
	// consume it; intra-function analyzers ignore it.
	Mod *Module

	// Unit is the loader's package record for this pass, usable as a
	// key into Mod (FuncInfo.Pkg == Unit for functions declared here).
	Unit *Package

	// Report records one finding.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Finding is a resolved diagnostic: position mapped through the
// FileSet and tagged with the analyzer that produced it.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// ignoreDirective is the suppression comment prefix: a comment
// `//danalint:ignore <name> -- reason` on the offending line (or the
// line immediately above it) drops findings of analyzer <name>;
// omitting the name drops all analyzers on that line. The `-- reason`
// tail is mandatory so suppressions stay auditable.
const ignoreDirective = "danalint:ignore"

// suppressions maps file -> line -> set of suppressed analyzer names
// ("" = all).
type suppressions map[string]map[int]map[string]bool

func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	add := func(file string, line int, name string) {
		byLine := sup[file]
		if byLine == nil {
			byLine = map[int]map[string]bool{}
			sup[file] = byLine
		}
		names := byLine[line]
		if names == nil {
			names = map[string]bool{}
			byLine[line] = names
		}
		names[name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, _, ok := parseIgnore(c.Text)
				if !ok {
					continue
				}
				// The directive covers its own line and the next line, so
				// it can sit above the offending statement.
				pos := fset.Position(c.Pos())
				add(pos.Filename, pos.Line, name)
				add(pos.Filename, pos.Line+1, name)
			}
		}
	}
	return sup
}

// parseIgnore splits one comment's text into the directive's analyzer
// name ("" = every analyzer) and its `-- reason` tail; ok is false for
// any other comment.
func parseIgnore(text string) (name, reason string, ok bool) {
	text = strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(text, "//"), "/*"))
	rest, ok := strings.CutPrefix(text, ignoreDirective)
	if !ok {
		return "", "", false
	}
	rest, reason, _ = strings.Cut(rest, "--")
	if f := strings.Fields(rest); len(f) > 0 {
		name = f[0]
	}
	return name, strings.TrimSpace(strings.TrimSuffix(reason, "*/")), true
}

func (s suppressions) suppressed(analyzer string, pos token.Position) bool {
	byLine, ok := s[pos.Filename]
	if !ok {
		return false
	}
	names, ok := byLine[pos.Line]
	if !ok {
		return false
	}
	return names[analyzer] || names[""]
}

// RunAnalyzers applies each analyzer to each package and returns the
// unsuppressed findings sorted by position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	mod := BuildModule(pkgs)
	var findings []Finding
	for _, pkg := range pkgs {
		sup := collectSuppressions(pkg.Fset, pkg.Files)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Mod:       mod,
				Unit:      pkg,
			}
			pass.Report = func(d Diagnostic) {
				pos := pkg.Fset.Position(d.Pos)
				if sup.suppressed(a.Name, pos) {
					return
				}
				findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}
