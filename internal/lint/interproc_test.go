package lint

// Meta-tests for the interprocedural layer (callgraph.go, summary.go)
// and the two analyzers built on it. The mutation tests plant the exact
// bug class each analyzer exists for in a scratch module — an
// allocation hidden two calls below a hotpath, a helper taking a lock
// that its caller's held lock is ordered after — and require that, of
// the whole suite, exactly the matching analyzer fires (and stays
// silent on the fixed variant). The property test pins determinism: two
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

// --- lockorder: a helper that takes drainMu, called under mu ---

// lockServer orders drainMu before mu in Drain and has a helper that
// takes drainMu. lockInversionBuggy's Submit calls the helper holding
// mu: the inversion no server test catches, because only an
// interleaving of the two deadlocks, so every test passes, -race
// included. lockInversionFixed calls it after Unlock.
const lockServer = `package server

import "sync"

type Server struct {
	mu      sync.Mutex
	drainMu sync.Mutex
	pending []int
}

// awaitDrain returns once no Drain batch is running.
func (s *Server) awaitDrain() {
	s.drainMu.Lock()
	s.drainMu.Unlock()
}

func (s *Server) Drain() []int {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	s.mu.Lock()
	jobs := s.pending
	s.pending = nil
	s.mu.Unlock()
	return jobs
}
`

const lockInversionBuggy = lockServer + `
func (s *Server) Submit(job int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pending = append(s.pending, job)
	s.awaitDrain()
}
`

const lockInversionFixed = lockServer + `
func (s *Server) Submit(job int) {
	s.mu.Lock()
	s.pending = append(s.pending, job)
	s.mu.Unlock()
	s.awaitDrain()
}
`

func TestLockOrderCatchesInvertedHelper(t *testing.T) {
	buggy := analyzeScratch(t, map[string]string{"server/server.go": lockInversionBuggy}, LockOrder)
	if len(buggy) != 2 {
		t.Fatalf("inverted helper: got %d findings, want 2 (the call under mu, Drain's mu.Lock): %v", len(buggy), buggy)
	}
	for _, f := range buggy {
		if !strings.Contains(f.Message, "inconsistent lock order") {
			t.Fatalf("unexpected finding message: %s", f.Message)
		}
	}
	if fixed := analyzeScratch(t, map[string]string{"server/server.go": lockInversionFixed}, LockOrder); len(fixed) != 0 {
		t.Fatalf("helper called after Unlock still flagged: %v", fixed)
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

// TestCollectSuppressionRecords: every directive becomes a record, and
// the audit fails one with no reason or with a name the suite lacks — a
// leftover of a deleted analyzer, or a typo — since neither suppresses
// anything while reading as audited.
func TestCollectSuppressionRecords(t *testing.T) {
	const src = `package engine

func f() []int {
	//danalint:ignore hotcall -- amortized growth, audited
	a := make([]int, 1)
	//danalint:ignore determinism
	b := make([]int, 2)
	//danalint:ignore tenantflow -- leftover of a deleted analyzer
	c := make([]int, 3)
	//danalint:ignore hotcal -- typo of hotcall
	d := make([]int, 4)
	//danalint:ignore -- every analyzer on the next line
	return append(append(append(a, b...), c...), d...)
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
	want := []struct{ analyzer, reason, problem string }{
		{"hotcall", "amortized growth, audited", ""},
		{"determinism", "", "<MISSING REASON>"},
		{"tenantflow", "leftover of a deleted analyzer", "<UNKNOWN ANALYZER>"},
		{"hotcal", "typo of hotcall", "<UNKNOWN ANALYZER>"},
		{"", "every analyzer on the next line", ""},
	}
	recs := CollectSuppressionRecords(pkgs)
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d: %+v", len(recs), len(want), recs)
	}
	for i, w := range want {
		r := recs[i]
		if r.Analyzer != w.analyzer || r.Reason != w.reason || r.Problem() != w.problem {
			t.Errorf("record %d: %+v with problem %q, want analyzer %q, reason %q, problem %q",
				i, r, r.Problem(), w.analyzer, w.reason, w.problem)
		}
	}
}

// --- determinism property test ---

// TestAnalyzerDeterminism loads and analyzes the same sources twice
// with completely independent loaders and requires byte-identical
// rendered findings — guarding the summary fixed point and CHA caches
// against map-iteration nondeterminism.
func TestAnalyzerDeterminism(t *testing.T) {
	root := writeScratchModule(t, map[string]string{
		"engine/page.go":   hiddenAllocBuggy,
		"server/server.go": lockInversionBuggy,
	})
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
