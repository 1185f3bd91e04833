// Command danalint is DAnA's multichecker: it runs the in-tree
// static-analysis suite (internal/lint) over module packages and exits
// non-zero on any finding. The analyzers turn the repo's runtime-checked
// invariants into compile-time failures:
//
//	pinbalance   every bufpool Pin is Unpinned on all paths (or handed off)
//	determinism  no wall-clock/rand/map-order effects in modeled-cycle packages
//	obsguard     obs call sites stay zero-alloc and lookup-free under obs.Noop
//	faulterrors  typed fault sentinels survive wrapping (%w, not %v)
//	hotcall      no heap allocation in a //dana:hotpath function or anything it calls
//	lockorder    mutexes are acquired in one module-wide order (no lock-order cycle)
//
// The last two are interprocedural: danalint builds a module-wide
// call graph (CHA with receiver narrowing) and per-function summaries
// bottom-up over its SCCs, then checks whole-closure facts at each
// call site.
//
// Usage:
//
//	danalint ./...                      # whole module, all analyzers
//	danalint -analyzers pinbalance ./internal/runtime
//	danalint -tests=false ./...         # skip _test.go files
//	danalint -audit ./...               # inventory every suppression
//
// Findings print as file:line:col: message (analyzer). Suppress a
// finding with `//danalint:ignore <analyzer> -- reason` on (or above)
// the offending line. The reason tail is mandatory: `-audit` lists
// every suppression in the module and exits non-zero if any directive
// omits it or names an analyzer the suite does not have.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"dana/internal/lint"
)

func main() {
	var (
		analyzers = flag.String("analyzers", "", "comma-separated analyzer names (default: all)")
		tests     = flag.Bool("tests", true, "analyze _test.go files too")
		list      = flag.Bool("list", false, "list available analyzers and exit")
		audit     = flag.Bool("audit", false, "list every //danalint:ignore suppression; exit non-zero on reason-less ones")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	suite := lint.All()
	if *analyzers != "" {
		suite = nil
		for _, name := range strings.Split(*analyzers, ",") {
			name = strings.TrimSpace(name)
			a := lint.ByName(name)
			if a == nil {
				fmt.Fprintf(os.Stderr, "danalint: unknown analyzer %q (use -list)\n", name)
				os.Exit(2)
			}
			suite = append(suite, a)
		}
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	loader, err := lint.NewLoader(wd)
	if err != nil {
		fatal(err)
	}
	loader.IncludeTests = *tests

	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fatal(err)
	}
	if *audit {
		runAudit(pkgs)
		return
	}
	findings, err := lint.RunAnalyzers(pkgs, suite)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "danalint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		os.Exit(1)
	}
}

// runAudit prints the module's suppression inventory and exits non-zero
// when any directive lacks the mandatory `-- reason` tail or names no
// analyzer of the suite.
func runAudit(pkgs []*lint.Package) {
	recs := lint.CollectSuppressionRecords(pkgs)
	unaudited := 0
	for _, r := range recs {
		analyzer := r.Analyzer
		if analyzer == "" {
			analyzer = "(all)"
		}
		reason := r.Reason
		if p := r.Problem(); p != "" {
			reason = strings.TrimSpace(p + " " + reason)
			unaudited++
		}
		fmt.Printf("%s:%d: %-12s %s\n", r.Pos.Filename, r.Pos.Line, analyzer, reason)
	}
	fmt.Fprintf(os.Stderr, "danalint: %d suppression(s), %d without a reason or a known analyzer\n", len(recs), unaudited)
	if unaudited > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "danalint:", err)
	os.Exit(1)
}
