package dana_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// lineBudgets caps each production package's non-test Go lines, by
// module-relative directory ("." is the root package), as docBudgets caps
// the documents. A change that grows a package raises its row in the same
// diff and says why; one that shrinks it lowers the row to the new count.
// The harness packages and their commands (harness, harnessBinaries) and
// bench/, its own module, have no row.
var lineBudgets = map[string]int{
	".":                     333,
	"cmd/danactl":           406,
	"cmd/danasrv":           230,
	"cmd/striderasm":        148,
	"examples/churn":        95,
	"examples/fraudsvm":     68,
	"examples/mysqlpages":   93,
	"examples/quickstart":   96,
	"examples/recommender":  93,
	"internal/accessengine": 611,
	"internal/algos":        139,
	"internal/backend":      1328,
	"internal/bufpool":      503,
	"internal/catalog":      276,
	"internal/compiler":     507,
	"internal/cost":         570,
	"internal/datagen":      286,
	"internal/dsl":          1190,
	"internal/engine":       3069,
	"internal/fault":        367,
	"internal/greenplum":    180,
	"internal/hdfg":         972,
	"internal/hwgen":        224,
	"internal/ml":           163,
	"internal/obs":          586,
	"internal/runtime":      1483,
	"internal/server":       1310,
	"internal/sql":          720,
	"internal/storage":      1792,
	"internal/strider":      1538,
	"internal/weaving":      492,
	"internal/workload":     113,
}

// TestPackageLineBudgets holds every production package to its row of
// lineBudgets: over the budget, without a row, or a row naming no package
// fails. The planted leg shows each of the three is reported.
func TestPackageLineBudgets(t *testing.T) {
	counts, err := productionLines(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range overBudget(counts, lineBudgets) {
		t.Error(v)
	}

	planted := map[string]int{"internal/planted": 1}
	for dir, n := range counts {
		planted[dir] = n
	}
	planted["internal/engine"] = lineBudgets["internal/engine"] + 1
	delete(planted, "internal/weaving")
	got := overBudget(planted, lineBudgets)
	if len(got) != 3 || !strings.Contains(got[0], "internal/engine") ||
		!strings.Contains(got[1], "internal/planted") || !strings.Contains(got[2], "internal/weaving") {
		t.Errorf("a package one line over, one without a row and a stale row read %q", got)
	}
}

// overBudget reports, by directory, each count over its budget, each count
// without one and each budget with no count.
func overBudget(counts, budgets map[string]int) []string {
	dirs := make([]string, 0, len(counts)+len(budgets))
	for dir := range counts {
		dirs = append(dirs, dir)
	}
	for dir := range budgets {
		if _, ok := counts[dir]; !ok {
			dirs = append(dirs, dir)
		}
	}
	slices.Sort(dirs)
	var out []string
	for _, dir := range dirs {
		n, counted := counts[dir]
		budget, ok := budgets[dir]
		switch {
		case !counted:
			out = append(out, dir+": a lineBudgets row for a directory with no production Go")
		case !ok:
			out = append(out, dir+": production package without a lineBudgets row")
		case n > budget:
			out = append(out, fmt.Sprintf("%s: %d non-test lines, over its budget of %d", dir, n, budget))
		}
	}
	return out
}

// productionLines counts the lines of the non-test Go files of every
// production package under root, by module-relative directory.
func productionLines(root string) (map[string]int, error) {
	skip := map[string]bool{"bench": true, "testdata": true}
	for _, h := range harness {
		skip[strings.TrimPrefix(h, "dana/")] = true
	}
	for b := range harnessBinaries {
		skip[strings.TrimPrefix(b, "dana/")] = true
	}
	counts := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if rel := filepath.ToSlash(path); skip[rel] || skip[d.Name()] || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		case !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		counts[filepath.ToSlash(filepath.Dir(path))] += strings.Count(string(b), "\n")
		return nil
	})
	return counts, err
}
