package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// Determinism protects the bit-identical-modeled-cycles guarantee: the
// packages that charge modeled cycles (engine, strider, accessengine,
// cost) must be pure functions of their inputs. The analyzer reports,
// inside those packages only:
//
//   - wall-clock reads (time.Now, time.Since, time.Sleep, timers);
//   - unseeded global math/rand calls (rand.Intn, …; seeded *rand.Rand
//     instances are allowed — they are deterministic by construction);
//   - order-sensitive writes under map iteration: a `range` over a map
//     whose body appends to a slice, writes to a Buffer/Builder, or
//     sends on a channel produces schedule-dependent output. The
//     key-collect-and-sort idiom (append keys, sort immediately after
//     the loop) is recognized and allowed.
//
// Host-side packages (runtime, bufpool) measure real wall time on
// purpose and are out of scope.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no wall-clock, unseeded rand, or map-order-dependent writes in modeled-cycle packages",
	Run:  runDeterminism,
}

// modeledPkgSuffixes lists the packages whose outputs feed the modeled
// cycle counts ("determinism" admits analyzer test fixtures).
var modeledPkgSuffixes = []string{
	"internal/engine", "internal/strider", "internal/accessengine", "internal/cost", "determinism",
}

func isModeledPkg(pkgPath string) bool {
	for _, s := range modeledPkgSuffixes {
		if strings.HasSuffix(pkgPath, s) {
			return true
		}
	}
	return false
}

// wallClockFuncs are the time-package functions that read or depend on
// the host clock. Pure constructors (time.Duration arithmetic,
// time.Unix) are fine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

func runDeterminism(pass *Pass) error {
	if !isModeledPkg(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		// Test files may time and randomize freely.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, file, n)
			}
			return true
		})
	}
	return nil
}

func checkNondetCall(pass *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	// Package-level function call: the selector base names a package.
	base, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[base].(*types.PkgName)
	if !ok {
		return
	}
	switch pkgName.Imported().Path() {
	case "time":
		if wallClockFuncs[sel.Sel.Name] {
			pass.Reportf(call.Pos(),
				"time.%s in modeled-cycle package %s: wall-clock reads break bit-identical cycle modeling",
				sel.Sel.Name, pass.Pkg.Name())
		}
	case "math/rand", "math/rand/v2":
		pass.Reportf(call.Pos(),
			"global rand.%s in modeled-cycle package %s: use an explicitly seeded *rand.Rand",
			sel.Sel.Name, pass.Pkg.Name())
	}
}

// checkMapRange flags order-sensitive writes inside map iteration.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	keyObj := bindingOf(pass.TypesInfo, rng.Key)
	var sortedSlices []types.Object
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) >= 2 {
				// append(keys, k) alone is the collect-and-sort idiom when a
				// sort of the destination follows the loop.
				if keyObj != nil && len(n.Args) == 2 && usesObject(pass.TypesInfo, n.Args[1], keyObj) {
					if dst := rootObject(pass.TypesInfo, n.Args[0]); dst != nil {
						sortedSlices = append(sortedSlices, dst)
						return true
					}
				}
				pass.Reportf(n.Pos(),
					"append inside range over map: element order depends on map iteration; sort the keys first")
				return true
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Write") {
				if recvIsOrderedSink(pass.TypesInfo, sel) {
					pass.Reportf(n.Pos(),
						"%s.%s inside range over map: output order depends on map iteration; sort the keys first",
						exprString(sel.X), sel.Sel.Name)
				}
			}
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside range over map: delivery order depends on map iteration; sort the keys first")
		}
		return true
	})
	// Collected key slices must be sorted somewhere after the loop in
	// the same file (position-based: any sort call on the same object).
	for _, obj := range sortedSlices {
		if !sortedLater(pass, file, rng, obj) {
			pass.Reportf(rng.Pos(),
				"keys of map range are collected into %s but never sorted: iteration order leaks into results",
				obj.Name())
		}
	}
}

// rootObject resolves the base identifier of an expression (x, x.f,
// x[i] all root at x).
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			if o := info.Uses[v]; o != nil {
				return o
			}
			return info.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// recvIsOrderedSink reports whether the method receiver is an
// order-sensitive accumulator (Builder, Buffer, io.Writer).
func recvIsOrderedSink(info *types.Info, sel *ast.SelectorExpr) bool {
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	t := s.Recv().String()
	return strings.Contains(t, "strings.Builder") || strings.Contains(t, "bytes.Buffer") ||
		strings.Contains(t, "io.Writer") || strings.Contains(t, "bufio.Writer")
}

// sortedLater reports whether obj is passed to a sort function after
// the range statement.
func sortedLater(pass *Pass, file *ast.File, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if base, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[base].(*types.PkgName); ok {
				p := path.Base(pn.Imported().Path())
				if (p == "sort" || p == "slices") && len(call.Args) >= 1 && usesObject(pass.TypesInfo, call.Args[0], obj) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
