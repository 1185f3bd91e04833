package dana_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// surface is one command line a user runs: a binary of cmd/ or
// examples/, its arguments and its standard input. A surface whose save
// is set has its standard output written to that file of the run
// directory, where a later surface reads it.
type surface struct {
	cmd   string
	args  []string
	stdin string
	save  string
}

// name is the surface as a user types it.
func (s surface) name() string { return strings.Join(append([]string{s.cmd}, s.args...), " ") }

// stdinScript is the line protocol danasrv's TestStdinGolden feeds it.
const stdinScript = "train tenant0 Remote Sensing LR\nscore tenant1 WLAN 0.001\nrun\nquit\n"

// surfaces are the command lines TestEveryProductionFunctionIsReached
// runs, in order; every example program follows them.
var surfaces = []surface{
	{cmd: "danabench", args: []string{"-exp", "all"}},
	{cmd: "danactl"},
	{cmd: "danactl", args: []string{"-listing"}},
	{cmd: "danactl", args: []string{"-precision", "8"}},
	{cmd: "danactl", args: []string{"-backend", "auto"}},
	{cmd: "danactl", args: []string{"-backend", "accelerator"}},
	{cmd: "danactl", args: []string{"-backend", "tabla"}},
	{cmd: "danactl", args: []string{"-backend", "cpu"}},
	{cmd: "danactl", args: []string{"-backend", "sharded"}},
	{cmd: "danactl", args: []string{"-backend", "weave"}},
	{cmd: "danactl", args: []string{"-page", "8", "-channels", "4"}},
	{cmd: "danactl", args: []string{"-workload", "Netflix", "-merge", "1"}},
	{cmd: "danactl", args: []string{"-sql", "SELECT COUNT(*), AVG(f0), MIN(f1), MAX(f1), SUM(label) FROM remote_sensing_lr WHERE f0 > 0 LIMIT 5"}},
	{cmd: "danactl", args: []string{"-sql", "DROP TABLE remote_sensing_lr"}},
	{cmd: "danactl", args: []string{"stats"}},
	{cmd: "danactl", args: []string{"stats", "-json"}},
	{cmd: "danactl", args: []string{"stats", "-backend", "auto"}},
	{cmd: "danactl", args: []string{"trace"}},
	{cmd: "danasrv"},
	{cmd: "danasrv", args: []string{"-compare"}},
	{cmd: "danasrv", args: []string{"-faulty", "tenant0"}},
	{cmd: "danasrv", args: []string{"-stdin"}, stdin: stdinScript},
	{cmd: "striderasm", args: []string{"-gen"}, save: "walker.s"},
	{cmd: "striderasm", args: []string{"-asm", "walker.s"}, save: "walker.hex"},
	{cmd: "striderasm", args: []string{"-dis", "walker.hex"}},
	{cmd: "striderasm", args: []string{"-verify", "walker.s"}},
	{cmd: "striderasm", args: []string{"-run", "walker.s"}},
}

// unreachedOK is the whole list of production functions that may stay
// although no surface enters them, each with what keeps it (ROADMAP
// item 22): bench/ calls it, an oracle compares against it, it is an
// error arm, a kernel or shape rule kept total over valid programs,
// big-endian only, an interface method, a String method production
// formats, or the root package's public API, or a function kept so,
// runs it. A function on unreferencedOK keeps that entry as its reason.
// Keys are pkg.Func and pkg.Type.Method, a command's or an example's
// package named by its directory.
var unreachedOK = map[string]string{
	"accessengine.decodeF32Loads":            "big-endian host: decodes a page's little-endian float4s by loads",
	"accessengine.walker.general":            "kept total over valid pages: a page whose items are not one payload wide takes it",
	"backend.Dispatcher.Names":               errorArm, // the unknown-backend errors list the names
	"backend.Dispatcher.Pick":                benchCall("Pick"),
	"backend.errNoBackend":                   errorArm,
	"bufpool.PageID.String":                  formatted, // Unpin's and Invalidate's errors
	"bufpool.Pool.Invalidate":                benchCall("Invalidate"),
	"bufpool.Pool.PageSize":                  benchCall("PageSize"),
	"bufpool.Pool.ResetStats":                "public API: what dana.Engine.WarmCache runs, through Pool.Warm",
	"bufpool.Pool.Warm":                      "public API: what dana.Engine.WarmCache runs, through System.WarmTable",
	"danabench.fail":                         errorArm,
	"danabench.gate":                         benchMode,
	"danabench.median":                       benchMode,
	"danabench.medianEntry":                  benchMode,
	"danabench.modeledCounters":              benchMode,
	"danabench.parseBenchLine":               benchMode,
	"danabench.readBenchFile":                benchMode,
	"danabench.runBenchMode":                 benchMode,
	"danabench.runGoBench":                   benchMode,
	"danabench.sortedKeys":                   benchMode,
	"danabench.writeBenchFile":               benchMode,
	"dsl.Add":                                dslOp,
	"dsl.Div":                                dslOp,
	"dsl.Gaussian":                           dslOp,
	"dsl.Gt":                                 dslOp,
	"dsl.Norm":                               dslOp,
	"dsl.Pi":                                 dslOp,
	"dsl.Sqrt":                               dslOp,
	"dsl.Algo.SetConvergence":                "public API: a method of dana.Algo; the convergence check it sets is kept total",
	"dsl.Expr.String":                        formatted, // Algo.Validate's errors
	"dsl.Kind.String":                        "String method Expr.String formats",
	"dsl.argNames":                           "what Expr.String formats an expression's operands with",
	"dsl.parser.errf":                        errorArm,
	"dsl.token.String":                       formatted, // the parser's errors
	"engine.CycleEstimate.chargeConvergence": planTotal, // a convergence check
	"engine.Machine.errTupleWidth":           errorArm,
	"engine.errGatherRow":                    errorArm,
	"engine.kEWwrap":                         planTotal,
	"engine.kFail":                           errorArm,
	"engine.kGather":                         planTotal,
	"engine.kGatherView":                     planTotal,
	"engine.kReduce":                         planTotal,
	"engine.kScatter":                        planTotal,
	"engine.kScatterPaired":                  planTotal,
	"fault.BackoffSec":                       errorArm, // the backoff a failed pool read charges before its retry
	"fault.splitmix64":                       "kept total over valid schedules: decides a rate strictly between 0 and 1, which dana.Config.Faults accepts and the chaos suites run",
	"greenplum.Sharded.SetModel":             "interface method of backend.Backend",
	"hdfg.Node.String":                       formatted, // the interpreter's errors
	"hdfg.Shape.String":                      formatted, // shape inference's errors
	"hdfg.convStage":                         "kept total over valid programs: the convergence stage, which no Table 3 program has",
	"hdfg.isSuffix":                          "shape rule kept total over valid programs: a suffix broadcast no Table 3 program has",
	"ml.LRMF.Loss":                           mlMethod,
	"ml.LRMF.Name":                           mlMethod,
	"ml.LRMF.TupleWidth":                     mlMethod,
	"ml.LRMF.Update":                         mlMethod,
	"ml.LRMF.rowOf":                          "reference: the row LRMF's Update and Loss read",
	"ml.Linear.Name":                         mlMethod,
	"ml.Linear.TupleWidth":                   mlMethod,
	"ml.Linear.Update":                       mlMethod,
	"ml.Logistic.Name":                       mlMethod,
	"ml.SVM.Name":                            mlMethod,
	"ml.SVM.TupleWidth":                      mlMethod,
	"ml.SVM.Update":                          mlMethod,
	"obs.Ring.Clear":                         "public API: what obs.Registry.Reset runs",
	"runtime.System.DropCaches":              benchCall("ColdCache"),
	"runtime.System.WarmTable":               "public API: what dana.Engine.WarmCache runs",
	"runtime.recordCache.clear":              benchCall("ColdCache"),
	"server.Kind.String":                     formatted, // Replan's job errors
	"server.Server.Policy":                   benchCall("Policy"),
	"server.Server.TenantNames":              benchCall("TenantNames"),
	"server.Server.TenantObs":                benchCall("TenantObs"),
	"server.pin.restore":                     errorArm, // puts back a refused batch's pins
	"sql.CreateTable.stmt":                   stmtMarker,
	"sql.DropTable.stmt":                     stmtMarker,
	"sql.Insert.stmt":                        stmtMarker,
	"sql.Select.stmt":                        stmtMarker,
	"storage.BuildWeavePage":                 benchCall("BuildWeavePage"),
	"storage.ColType.String":                 formatted, // the walk's schema errors
	"storage.Schema.String":                  formatted,
	"storage.Page.DeleteItem":                "public API: what storage.Relation.Delete runs",
	"storage.Page.Item":                      "public API: what storage.Relation.Get runs",
	"storage.Page.Size":                      "safety hook: what storage.Relation.Validate runs",
	"storage.Page.Special":                   "safety hook: what storage.Relation.Validate runs",
	"storage.Page.Validate":                  "safety hook: what storage.Relation.Validate runs",
	"storage.Relation.TupleBytes":            "public API: what storage.Relation.TuplesPerPage runs",
	"strider.Diag.String":                    formatted, // Report.Err
	"strider.VM.Reserve":                     benchCall("Reserve"),
	"strider.VM.fault":                       errorArm,
	"strider.interval.mul":                   "kept total over valid programs: the verifier's bound for mul, which the generated walkers do not use",
	"weaving.Extractor.DecodeRows":           benchCall("DecodeRows"),
	"weaving.ReweaveRows":                    benchCall("ReweaveRows"),
}

// Reasons unreachedOK gives more than once.
const (
	errorArm   = "error arm: builds or formats an error no surface run raises"
	formatted  = "String method a production error formats"
	planTotal  = "kernel kept total over valid programs: no Table 3 program lowers to it, TestPlanMatchesReferenceRandom enters it"
	dslOp      = "public API: a Table 1 operation dana re-exports, which no Table 3 UDF uses"
	mlMethod   = "interface method of ml.Algorithm, the MADlib and Greenplum baselines' reference trainers"
	stmtMarker = "interface method: marks the type a sql.Statement"
)

// benchPrefix opens the reason of a function bench/ reaches: bench/ is
// its own module, so its runs write no coverage profile, and the entry
// holds only while bench/*.go still calls the name after the prefix.
const benchPrefix = "bench/ calls "

// benchCall is the reason of a function bench/ reaches by calling name.
func benchCall(name string) string { return benchPrefix + name }

// benchMode is the reason of danabench's -bench mode, which CI's bench
// gate runs and no surface does (it runs go test); it holds only while
// ci.yml runs that mode.
const benchMode = "danabench -bench mode, which ci.yml's bench gate runs"

// TestEveryProductionFunctionIsReached builds every command but
// danalint and every example with -cover, runs each surface under
// GOCOVERDIR, and fails on a surface that exits non-zero or prints
// nothing, and on a function of a covered package that no surface
// enters and that neither unreachedOK nor unreferencedOK keeps. Covered
// is every package of the module but the root (the public API),
// testOnly's packages and the linter (its analyzers are driven by its
// golden testdata); bench/ is its own module. An unreachedOK entry
// fails when its function is reached or gone, when it is on
// unreferencedOK too, or when its mechanical reason no longer holds.
// The check is shown to report a planted unreached function and
// nothing else, a stale entry, a bench/ call that is gone, and a surface
// that exits non-zero. It logs the never-entered functions and their
// reasons under -v.
func TestEveryProductionFunctionIsReached(t *testing.T) {
	if testing.Short() {
		t.Skip("coverage build of every surface skipped in -short mode")
	}
	cmds, all := surfaceBinaries(t)
	dir := t.TempDir()
	bin, cov, work := filepath.Join(dir, "bin"), filepath.Join(dir, "cov"), filepath.Join(dir, "run")
	for _, d := range []string{bin, cov, work} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	build := exec.Command("go", append([]string{"build", "-cover", "-coverpkg=dana/...", "-o", bin + string(filepath.Separator)}, cmds...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -cover: %v\n%s", err, out)
	}
	t.Logf("built %d binaries in %v", len(cmds), time.Since(start).Round(time.Millisecond))

	start = time.Now()
	run := append(slices.Clone(surfaces), all...)
	for _, s := range run {
		t.Run(s.name(), func(t *testing.T) {
			if err := runSurface(bin, work, cov, s); err != nil {
				t.Fatal(err)
			}
		})
	}
	if t.Failed() {
		t.FailNow() // a surface that failed reached less than it should: the listing would mislead
	}
	t.Logf("ran %d surfaces in %v", len(run), time.Since(start).Round(time.Millisecond))
	ran := map[string]bool{}
	for _, s := range run {
		ran[s.cmd] = true
	}
	for _, c := range cmds {
		if !ran[path.Base(c)] {
			t.Errorf("%s is built but no surface runs it: add a row to surfaces", c)
		}
	}

	out, err := exec.Command("go", "tool", "covdata", "func", "-i="+cov).Output()
	if err != nil {
		t.Fatalf("go tool covdata func: %v", err)
	}
	listing := string(out)
	zero, linked := neverEntered(listing)
	pkgs, err := exec.Command("go", "list", "./...").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range strings.Fields(string(pkgs)) {
		if rel := strings.TrimPrefix(p, "dana/"); p != "dana" && !reachExempt(rel) && !linked[rel] {
			t.Errorf("package %s is linked into no surface binary, so the check cannot see it", p)
		}
	}
	bench, ci := benchSource(t), readFile(t, ".github/workflows/ci.yml")
	for _, f := range reachFindings(zero, unreachedOK, bench, ci) {
		t.Error(f)
	}
	if testing.Verbose() {
		keys := make([]string, 0, len(zero))
		for k := range zero {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			why := unreachedOK[k]
			if why == "" {
				why = unreferencedOK[k]
			}
			t.Logf("%s: %s: %s", zero[k], k, why)
		}
	}
	t.Logf("%d functions never entered, %d kept on unreachedOK", len(zero), len(unreachedOK))

	// Each planted leg, on a test-local table, reports exactly its plant:
	// a never-entered function of a production package, an entry for a
	// function that is gone, and a benchCall entry for a call bench/ no
	// longer makes.
	plantedZero, _ := neverEntered(listing + "dana/internal/strider/vm.go:999:\t*VM.planted\t\t0.0%\n")
	staleOK := maps.Clone(unreachedOK)
	staleOK["strider.VM.gone"] = errorArm
	for _, leg := range []struct {
		zero, ok    map[string]string
		bench, want string
	}{
		{plantedZero, unreachedOK, bench, "strider.VM.planted has no reason"},
		{zero, staleOK, bench, "unreachedOK lists strider.VM.gone, which is now reached or gone"},
		{zero, unreachedOK, strings.ReplaceAll(bench, "Pick(", "pick("), "unreachedOK keeps backend.Dispatcher.Pick because bench/ calls Pick"},
	} {
		if got := reachFindings(leg.zero, leg.ok, leg.bench, ci); len(got) != 1 || !strings.Contains(got[0], leg.want) {
			t.Errorf("planted %q reads %q", leg.want, got)
		}
	}
	// A surface that exits non-zero fails the check.
	if err := runSurface(bin, work, cov, surface{cmd: "danactl", args: []string{"-precision", "33"}}); err == nil || !strings.Contains(err.Error(), "danactl -precision 33") {
		t.Errorf("a surface that exits non-zero returned %v", err)
	}
}

// surfaceBinaries returns the packages the check builds — every cmd/
// directory but danalint's, and every example — and a surface for each
// example program.
func surfaceBinaries(t *testing.T) (pkgs []string, examples []surface) {
	t.Helper()
	for _, parent := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if !e.IsDir() || reachExempt(parent+"/"+e.Name()) {
				continue
			}
			pkgs = append(pkgs, "./"+parent+"/"+e.Name())
			if parent == "examples" {
				examples = append(examples, surface{cmd: e.Name()})
			}
		}
	}
	if len(examples) == 0 {
		t.Fatal("no example programs found under examples/")
	}
	return pkgs, examples
}

// runSurface runs s's binary from bin in the directory work, with
// coverage written to cov. It fails when the binary exits non-zero or
// prints nothing on standard output.
func runSurface(bin, work, cov string, s surface) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(bin, s.cmd), s.args...)
	cmd.Dir = work
	cmd.Env = append(os.Environ(), "GOCOVERDIR="+cov)
	cmd.Stdin = strings.NewReader(s.stdin)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %v\n%s", s.name(), err, stderr.Bytes())
	}
	if stdout.Len() == 0 {
		return fmt.Errorf("%s printed nothing", s.name())
	}
	if s.save != "" {
		return os.WriteFile(filepath.Join(work, s.save), stdout.Bytes(), 0o644)
	}
	return nil
}

// reachExempt reports whether a module-relative package is outside the
// check: testOnly's packages and the linter with its command.
func reachExempt(rel string) bool {
	return testOnly[rel] || rel == "internal/lint" || rel == "cmd/danalint"
}

// neverEntered reads a `go tool covdata func` listing into the functions
// of covered packages that read 0.0 %, keyed as unreachedOK is, with
// their positions, and the set of module-relative packages it lists.
func neverEntered(listing string) (zero map[string]string, linked map[string]bool) {
	zero, linked = map[string]string{}, map[string]bool{}
	for _, line := range strings.Split(listing, "\n") {
		f := strings.Fields(line)
		if len(f) != 3 || !strings.HasPrefix(f[0], "dana/") {
			continue
		}
		file := strings.SplitN(f[0], ":", 2)[0]
		rel := strings.TrimPrefix(path.Dir(file), "dana")
		rel = strings.TrimPrefix(rel, "/")
		linked[rel] = true
		if rel == "" || reachExempt(rel) || f[2] != "0.0%" {
			continue
		}
		zero[path.Base(rel)+"."+strings.TrimPrefix(f[1], "*")] = strings.TrimSuffix(f[0], ":")
	}
	return zero, linked
}

// reachFindings lists what the check reports for the never-entered
// functions zero, kept by ok and unreferencedOK, given bench/'s Go
// source and ci.yml: a function no list keeps, and an entry of ok that
// is stale, doubled on unreferencedOK, or whose mechanical reason no
// longer holds.
func reachFindings(zero, ok map[string]string, bench, ci string) []string {
	var out []string
	for name, pos := range zero {
		if ok[name] == "" && unreferencedOK[name] == "" {
			out = append(out, fmt.Sprintf("%s: %s has no reason: no surface enters it; delete it, or list it in unreachedOK with its reason", pos, name))
		}
	}
	for name, why := range ok {
		switch {
		case zero[name] == "":
			out = append(out, fmt.Sprintf("unreachedOK lists %s, which is now reached or gone: drop the entry", name))
		case unreferencedOK[name] != "":
			out = append(out, fmt.Sprintf("%s is on unreachedOK and unreferencedOK: keep one reason", name))
		case strings.HasPrefix(why, benchPrefix) && !strings.Contains(bench, strings.TrimPrefix(why, benchPrefix)+"("):
			out = append(out, fmt.Sprintf("unreachedOK keeps %s because %s, and bench/ no longer does", name, why))
		case why == benchMode && !strings.Contains(ci, "danabench -bench"):
			out = append(out, fmt.Sprintf("unreachedOK keeps %s for danabench -bench, which ci.yml no longer runs", name))
		}
	}
	slices.Sort(out)
	return out
}

// benchSource is the Go source of bench/'s non-test files, concatenated.
func benchSource(t *testing.T) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("bench", "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("bench/*.go: %v (%d files)", err, len(files))
	}
	var b strings.Builder
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			b.WriteString(readFile(t, f))
		}
	}
	return b.String()
}

func readFile(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
