package lint

// Meta-tests for the interprocedural layer (callgraph.go, summary.go,
// taint.go) and the three analyzers built on it. The mutation tests
// plant the exact bug class each analyzer exists for in a scratch
// module — an allocation hidden two calls below a hotpath, a tenant
// registry stored into a package var, an unjoined go statement — and
// require that, of the whole suite, exactly the matching analyzer fires
// (and stays silent on the fixed variant). The property test pins determinism: two
// independent loads and runs must produce byte-identical findings.

import (
	"strings"
	"testing"
	"time"
)

// --- hotcall: allocation hidden two calls below a hotpath ---

const hiddenAllocBuggy = `package engine

type page struct{ vals []float32 }

func refill(n int) []float32 { return make([]float32, n) }

func grow(p *page, n int) { p.vals = refill(n) }

//dana:hotpath
func drain(p *page, n int) {
	grow(p, n)
}
`

const hiddenAllocFixed = `package engine

type page struct{ vals []float32 }

func reuse(p *page) { p.vals = p.vals[:0] }

//dana:hotpath
func drain(p *page, n int) {
	reuse(p)
}
`

func TestHotCallCatchesAllocationTwoCallsDeep(t *testing.T) {
	buggy := analyzeScratch(t, map[string]string{
		"engine/page.go": hiddenAllocBuggy,
	}, HotCall)
	if len(buggy) == 0 || !strings.Contains(buggy[0].Message, "refill") || !strings.Contains(buggy[0].Message, "make") {
		t.Fatalf("finding should render the allocation chain, got: %v", buggy)
	}

	fixed := analyzeScratch(t, map[string]string{
		"engine/page.go": hiddenAllocFixed,
	}, HotCall)
	if len(fixed) != 0 {
		t.Fatalf("fixed variant still flagged: %v", fixed)
	}
}

// --- tenantflow: tenant registry stored into a package var ---

var scratchTenantDeps = map[string]string{
	"runtime/system.go": "package runtime\n\ntype System struct{ ID int }\n",
	"obs/registry.go":   "package obs\n\ntype Registry struct{ N int }\n",
	"fault/injector.go": "package fault\n\ntype Injector struct{ N int }\n",
}

const tenantLeakBuggy = `package server

import (
	"scratch/fault"
	"scratch/obs"
	"scratch/runtime"
)

type tenant struct {
	sys *runtime.System
	reg *obs.Registry
	inj *fault.Injector
}

var debugReg *obs.Registry

func leak(t *tenant) {
	debugReg = t.reg
}
`

const tenantLeakFixed = `package server

import (
	"scratch/fault"
	"scratch/obs"
	"scratch/runtime"
)

type tenant struct {
	sys *runtime.System
	reg *obs.Registry
	inj *fault.Injector
}

func tenantObs(t *tenant) *obs.Registry {
	return t.reg
}
`

func TestTenantFlowCatchesRegistryStoredInPackageVar(t *testing.T) {
	files := map[string]string{"server/server.go": tenantLeakBuggy}
	for k, v := range scratchTenantDeps {
		files[k] = v
	}
	buggy := analyzeScratch(t, files, TenantFlow)
	if len(buggy) == 0 || !strings.Contains(buggy[0].Message, "debugReg") {
		t.Fatalf("finding should name the package-level var, got: %v", buggy)
	}

	files["server/server.go"] = tenantLeakFixed
	fixed := analyzeScratch(t, files, TenantFlow)
	if len(fixed) != 0 {
		t.Fatalf("fixed variant (accessor return) still flagged: %v", fixed)
	}
}

// --- golifecycle: unjoined go func ---

const unjoinedGoBuggy = `package server

func fire(n int) {
	for i := 0; i < n; i++ {
		go func() {
			_ = i + 1
		}()
	}
}
`

const unjoinedGoFixed = `package server

import "sync"

func fire(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = i + 1
		}()
	}
	wg.Wait()
}
`

func TestGoLifecycleCatchesUnjoinedGoroutine(t *testing.T) {
	if buggy := analyzeScratch(t, map[string]string{
		"server/server.go": unjoinedGoBuggy,
	}, GoLifecycle); len(buggy) == 0 {
		t.Fatal("expected golifecycle to fire, got no findings")
	}

	fixed := analyzeScratch(t, map[string]string{
		"server/server.go": unjoinedGoFixed,
	}, GoLifecycle)
	if len(fixed) != 0 {
		t.Fatalf("fixed variant still flagged: %v", fixed)
	}
}

// --- summary layer unit tests ---

const mutualRecursion = `package engine

func pingAlloc(n int) []int {
	if n == 0 {
		return nil
	}
	return pongAlloc(n - 1)
}

func pongAlloc(n int) []int {
	buf := make([]int, n)
	_ = pingAlloc(n - 1)
	return buf
}

func pingClean(n int) int {
	if n == 0 {
		return 0
	}
	return pongClean(n - 1)
}

func pongClean(n int) int {
	return pingClean(n - 1)
}
`

func TestSummaryFixedPointOverRecursion(t *testing.T) {
	root := writeScratchModule(t, map[string]string{"engine/rec.go": mutualRecursion})
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	m := BuildModule(pkgs)
	get := func(name string) *Summary {
		for _, id := range m.FuncIDs() {
			if strings.HasSuffix(id, "."+name) {
				return m.Summaries[id]
			}
		}
		t.Fatalf("no summary for %s", name)
		return nil
	}
	// pongAlloc allocates directly; pingAlloc reaches it through the
	// recursion cycle. Note pingAlloc's only call is inside a non-cold
	// position (the return), so the edge propagates.
	if s := get("pongAlloc"); !s.TransAllocs {
		t.Fatalf("pongAlloc should be transitively allocating: %+v", s)
	}
	if s := get("pingAlloc"); !s.TransAllocs {
		t.Fatalf("pingAlloc should inherit allocation through the cycle: %+v", s)
	}
	if s := get("pingClean"); s.TransAllocs {
		t.Fatalf("pingClean should stay allocation-free: %s", s.TransAllocDesc)
	}
	if s := get("pongClean"); s.TransAllocs {
		t.Fatalf("pongClean should stay allocation-free: %s", s.TransAllocDesc)
	}
}

const escapeChain = `package helper

var global *int

func sinkDirect(p *int) { global = p }

func sinkViaHop(p *int) { sinkDirect(p) }
`

func TestEscapeSummariesPropagateThroughCallChain(t *testing.T) {
	root := writeScratchModule(t, map[string]string{"helper/helper.go": escapeChain})
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	m := BuildModule(pkgs)
	for _, name := range []string{"sinkDirect", "sinkViaHop"} {
		found := false
		for _, id := range m.FuncIDs() {
			if strings.HasSuffix(id, "."+name) {
				if why, ok := m.Summaries[id].Escapes[0]; !ok {
					t.Errorf("%s: parameter 0 should escape", name)
				} else if !strings.Contains(why, "global") && !strings.Contains(why, "sinkDirect") {
					t.Errorf("%s: escape description should trace the path, got %q", name, why)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("no summary for %s", name)
		}
	}
}

const chaFanOut = `package engine

type op interface{ apply(n int) int }

type addOp struct{ k int }

func (a addOp) apply(n int) int { return n + a.k }

type allocOp struct{ buf []int }

func (a *allocOp) apply(n int) int {
	a.buf = make([]int, n)
	return n
}

func runOp(o op, n int) int { return o.apply(n) }
`

func TestCHAFanOutOverInterfaceCall(t *testing.T) {
	root := writeScratchModule(t, map[string]string{"engine/op.go": chaFanOut})
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	m := BuildModule(pkgs)
	var site *CallSite
	for _, id := range m.FuncIDs() {
		if strings.HasSuffix(id, ".runOp") {
			for _, s := range m.Funcs[id].Calls {
				site = s
			}
		}
	}
	if site == nil {
		t.Fatal("no call site found in runOp")
	}
	if !site.Dynamic {
		t.Fatalf("interface call should be dynamic: %+v", site)
	}
	if len(site.Callees) != 2 {
		t.Fatalf("CHA should fan out to both implementations, got %v", site.Callees)
	}
}

func TestExternAllowlistNormalization(t *testing.T) {
	cases := []struct {
		id   string
		free bool
	}{
		{"time.Now", true},
		{"(*sync.Mutex).Lock", true},
		{"(*sync.WaitGroup).Wait", true},
		{"sync/atomic.AddInt64", true},
		{"math.Float32bits", true},
		{"(encoding/binary.littleEndian).Uint64", true},
		{"fmt.Sprintf", false},
		{"strconv.FormatFloat", false},
		{"(*strings.Builder).WriteString", false},
	}
	for _, tc := range cases {
		if got := externAllocs(tc.id) == ""; got != tc.free {
			t.Errorf("externAllocs(%q): allocation-free=%v, want %v", tc.id, got, tc.free)
		}
	}
}

func TestCollectSuppressionRecords(t *testing.T) {
	const src = `package engine

func f() []int {
	//danalint:ignore hotcall -- amortized growth, audited
	a := make([]int, 1)
	//danalint:ignore determinism
	b := make([]int, 2)
	return append(a, b...)
}
`
	root := writeScratchModule(t, map[string]string{"engine/s.go": src})
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	recs := CollectSuppressionRecords(pkgs)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2: %+v", len(recs), recs)
	}
	if recs[0].Analyzer != "hotcall" || recs[0].Reason != "amortized growth, audited" {
		t.Fatalf("bad first record: %+v", recs[0])
	}
	if recs[1].Analyzer != "determinism" || recs[1].Reason != "" {
		t.Fatalf("second record should be reason-less: %+v", recs[1])
	}
}

// --- determinism property test ---

// TestAnalyzerDeterminism loads and analyzes the same sources twice
// with completely independent loaders and requires byte-identical
// rendered findings — guarding the summary fixed point and CHA caches
// against map-iteration nondeterminism.
func TestAnalyzerDeterminism(t *testing.T) {
	files := map[string]string{
		"engine/page.go":   hiddenAllocBuggy,
		"server/server.go": tenantLeakBuggy + "\nfunc fire() {\n\tgo func() { _ = 1 }()\n}\n",
	}
	for k, v := range scratchTenantDeps {
		files[k] = v
	}
	root := writeScratchModule(t, files)
	render := func() string {
		ld, err := NewLoader(root)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := ld.Load("./...")
		if err != nil {
			t.Fatal(err)
		}
		findings, err := RunAnalyzers(pkgs, All())
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range findings {
			b.WriteString(f.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	first := render()
	if first == "" {
		t.Fatal("determinism corpus produced no findings; the comparison is vacuous")
	}
	for i := 0; i < 2; i++ {
		if again := render(); again != first {
			t.Fatalf("run %d diverged:\n--- first ---\n%s--- again ---\n%s", i+2, first, again)
		}
	}
}

// --- call-graph construction budget ---

// TestCallGraphBudget keeps danalint viable as a per-PR gate: building
// the module index (call graph + summaries + lock edges) for the lint
// package's own sources must stay well under a second. The loader is
// excluded — parsing and typechecking dominate and are measured by the
// lint CI job as a whole.
func TestCallGraphBudget(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := ld.Load("./internal/server/...", "./internal/runtime/...", "./internal/weaving/...")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	m := BuildModule(pkgs)
	elapsed := time.Since(start)
	if len(m.FuncIDs()) == 0 {
		t.Fatal("module index is empty")
	}
	const budget = 5 * time.Second
	if elapsed > budget {
		t.Fatalf("BuildModule took %v for %d functions, budget %v", elapsed, len(m.FuncIDs()), budget)
	}
	t.Logf("BuildModule: %d functions, %d lock edges in %v", len(m.FuncIDs()), len(m.LockEdges), elapsed)
}

func BenchmarkBuildModule(b *testing.B) {
	ld, err := NewLoader(".")
	if err != nil {
		b.Fatal(err)
	}
	pkgs, err := ld.Load("./internal/server/...", "./internal/runtime/...")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildModule(pkgs)
	}
}
