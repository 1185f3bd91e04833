package lint

// Interprocedural layer, part 2: per-function summaries. Each declared
// function gets a small lattice of facts — does its body allocate (or
// spawn a goroutine) on a hot (non-early-exit) path, which locks can it
// acquire — and the transitive closures of those facts are computed
// bottom-up over the call graph's strongly connected components, with a
// fixed point inside each SCC so recursion converges. Analyzers then
// consume whole-closure facts at a single call site: hotcall asks
// "does anything this call can reach allocate", lockorder asks "what
// locks does this callee take while I hold mine".
//
// The facts are monotone booleans and sets, so the fixed point
// terminates; all iteration is over sorted FuncIDs for determinism.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Summary is the interprocedural fact set of one function.
type Summary struct {
	// AllocWhat is non-empty when the body itself contains a hot-path
	// allocation that is neither inside an early-exit branch nor
	// covered by an audited hotcall suppression; AllocPos is the first
	// such site.
	AllocWhat string
	AllocPos  token.Pos

	// TransAllocs closes AllocWhat over all non-cold call edges;
	// TransAllocDesc renders the offending chain for diagnostics
	// ("mid → leafAlloc: make at file.go:12").
	TransAllocs    bool
	TransAllocDesc string

	// transLockSet holds the lock IDs this function may acquire,
	// directly or through callees.
	transLockSet map[string]bool
}

// LockEdge records one "acquired while holding" pair in the module's
// lock-order graph.
type LockEdge struct {
	From, To string // lock IDs: To acquired while From held
	Pos      token.Pos
	Fn       string // FuncID where the acquisition happens
}

// buildSummaries computes direct facts per function, then closes them
// over Tarjan SCCs in reverse topological order (callees first), and
// finally assembles the module lock-order graph.
func buildSummaries(m *Module) {
	for _, id := range m.funcIDs {
		fi := m.Funcs[id]
		s := &Summary{transLockSet: map[string]bool{}}
		s.AllocPos, s.AllocWhat = bodyAllocation(fi.Pkg, fi.Decl, m.sups[fi.Pkg])
		for _, acq := range fi.lockAcqs {
			s.transLockSet[acq.id] = true
		}
		m.Summaries[id] = s
	}

	for _, scc := range tarjanSCCs(m) {
		for changed := true; changed; {
			changed = false
			for _, id := range scc {
				if m.closeSummary(id) {
					changed = true
				}
			}
		}
	}
	m.buildLockEdges()
}

// closeSummary propagates callee facts into id's summary; reports
// whether anything changed.
func (m *Module) closeSummary(id string) bool {
	fi := m.Funcs[id]
	s := m.Summaries[id]
	changed := false
	if !s.TransAllocs && s.AllocWhat != "" {
		s.TransAllocs = true
		s.TransAllocDesc = fmt.Sprintf("%s at %s", s.AllocWhat, m.Fset.Position(s.AllocPos))
		changed = true
	}
	for _, site := range fi.Calls {
		if site.Cold {
			continue // early-exit branch: does not disprove steady state
		}
		// An audited call site (//danalint:ignore hotcall at the call)
		// is a reviewed boundary: the callee's allocations are
		// accounted for there and do not propagate to callers.
		if m.sups[fi.Pkg].suppressed(HotCall.Name, m.Fset.Position(site.Pos)) {
			continue
		}
		for _, callee := range site.Callees {
			if cs, ok := m.Summaries[callee]; ok {
				if cs.TransAllocs && !s.TransAllocs {
					s.TransAllocs = true
					s.TransAllocDesc = shortFuncID(callee) + " → " + cs.TransAllocDesc
					changed = true
				}
				continue
			}
			if !s.TransAllocs {
				if why := externAllocs(callee); why != "" {
					s.TransAllocs = true
					s.TransAllocDesc = fmt.Sprintf("%s (%s) at %s", shortFuncID(callee), why, m.Fset.Position(site.Pos))
					changed = true
				}
			}
		}
	}
	// Lock closure runs over every site (cold or not: an error-path
	// acquisition still participates in ordering).
	for _, site := range fi.Calls {
		for _, callee := range site.Callees {
			if cs, ok := m.Summaries[callee]; ok {
				for l := range cs.transLockSet {
					if !s.transLockSet[l] {
						s.transLockSet[l] = true
						changed = true
					}
				}
			}
		}
	}
	return changed
}

// buildLockEdges assembles the module lock-order graph: intra-function
// acquisition pairs plus, for every call site, edges from the locks
// held at the site to everything the callee's closure can acquire.
func (m *Module) buildLockEdges() {
	for _, id := range m.funcIDs {
		fi := m.Funcs[id]
		for _, acq := range fi.lockAcqs {
			for _, h := range acq.held {
				m.LockEdges = append(m.LockEdges, LockEdge{From: h, To: acq.id, Pos: acq.pos, Fn: id})
			}
		}
		for _, site := range fi.Calls {
			if len(site.Held) == 0 {
				continue
			}
			for _, callee := range site.Callees {
				cs, ok := m.Summaries[callee]
				if !ok {
					continue
				}
				for _, l := range sortedKeys(cs.transLockSet) {
					for _, h := range site.Held {
						if h != l {
							m.LockEdges = append(m.LockEdges, LockEdge{From: h, To: l, Pos: site.Pos, Fn: id})
						}
					}
				}
			}
		}
	}
}

// tarjanSCCs returns the call graph's strongly connected components in
// reverse topological order (every edge out of a component points to an
// earlier one), restricted to module-internal edges.
func tarjanSCCs(m *Module) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var sccs [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range m.calleesOf(v) {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sort.Strings(scc)
			sccs = append(sccs, scc)
		}
	}
	for _, id := range m.funcIDs {
		if _, seen := index[id]; !seen {
			strongconnect(id)
		}
	}
	return sccs
}

// calleesOf lists the module-internal callees of id, sorted, deduped.
func (m *Module) calleesOf(id string) []string {
	fi := m.Funcs[id]
	seen := map[string]bool{}
	var out []string
	for _, site := range fi.Calls {
		for _, c := range site.Callees {
			if _, ok := m.Funcs[c]; ok && !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	sort.Strings(out)
	return out
}

// bodyAllocation scans one body for the first allocation that is hot
// (not in an early-exit branch) and unaudited (no hotcall suppression on
// its line). The construct set is the one runHotCall reports at depth
// 0: both read the one site classifier, walkAllocSites.
func bodyAllocation(pkg *Package, fn *ast.FuncDecl, sup suppressions) (firstPos token.Pos, firstWhat string) {
	walkAllocSites(pkg.TypesInfo, fn.Body, func(n ast.Node, stack []ast.Node, what, _ string) {
		if firstWhat != "" || coldSite(n, stack) || sup.suppressed(HotCall.Name, pkg.Fset.Position(n.Pos())) {
			return // already found; cold; or audited (amortized or pool-fallback allocation)
		}
		firstPos, firstWhat = n.Pos(), what
	})
	return firstPos, firstWhat
}

// externAllocFree lists external (stdlib) functions and methods proven
// allocation-free, keyed by normalized name ("sync.Mutex.Lock"). The
// list is an allowlist: anything external and unlisted counts as
// allocating, so the hotcall gate fails closed and the fix is a
// reviewed one-line addition here.
var externAllocFree = map[string]bool{
	"time.Now": true, "time.Since": true, "time.Sleep": true,
	"time.Time.UnixNano": true, "time.Time.Sub": true, "time.Time.Unix": true,
	"time.Time.IsZero": true, "time.Time.Before": true, "time.Time.After": true,
	"time.Time.Equal":           true,
	"time.Duration.Nanoseconds": true, "time.Duration.Seconds": true,
	"time.Duration.Microseconds": true, "time.Duration.Milliseconds": true,
	"sync.Mutex.Lock": true, "sync.Mutex.Unlock": true,
	"sync.RWMutex.Lock": true, "sync.RWMutex.Unlock": true,
	"sync.RWMutex.RLock": true, "sync.RWMutex.RUnlock": true,
	"sync.WaitGroup.Add": true, "sync.WaitGroup.Done": true, "sync.WaitGroup.Wait": true,
	"sync.Once.Do":    true,
	"errors.Is":       true,
	"errors.Unwrap":   true,
	"sort.SearchInts": true,
}

// externAllocFreePkgs are packages whose exported API is wholly
// allocation-free (pure arithmetic or atomic operations).
var externAllocFreePkgs = map[string]bool{
	"math": true, "math/bits": true, "sync/atomic": true,
	"encoding/binary": true, "unicode/utf8": true,
}

// externAllocs classifies an external callee: empty string means proven
// allocation-free, otherwise the reason it counts as allocating.
func externAllocs(id string) string {
	key, pkg := normalizeExtern(id)
	if externAllocFree[key] || externAllocFreePkgs[pkg] {
		return ""
	}
	return "not allowlisted as allocation-free"
}

// normalizeExtern maps a FuncID to an allowlist key and its package
// path: "(*sync.Mutex).Lock" → ("sync.Mutex.Lock", "sync").
func normalizeExtern(id string) (key, pkg string) {
	key = strings.NewReplacer("(*", "", "(", "", ")", "").Replace(id)
	if i := strings.LastIndex(key, "/"); i >= 0 {
		// Trim directory components: "encoding/binary.littleEndian.Uint64"
		// keys by its base but keeps the full path for the pkg test.
		pkg = key[:i+1]
		key = key[i+1:]
	}
	dot := strings.Index(key, ".")
	if dot < 0 {
		return key, pkg + key
	}
	return key, pkg + key[:dot]
}

// shortFuncID trims directory components of import paths embedded in a
// FuncID, keeping only the package base name:
// "(*dana/internal/bufpool.Pool).Pin" → "(*bufpool.Pool).Pin".
func shortFuncID(id string) string {
	var b strings.Builder
	start := 0
	for i := 0; i < len(id); i++ {
		switch id[i] {
		case '/':
			start = i + 1
		case '(', '*', ')', '.', ' ':
			b.WriteString(id[start : i+1])
			start = i + 1
		}
	}
	b.WriteString(id[start:])
	return b.String()
}

// sortedKeys returns map keys in sorted order (determinism).
func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
