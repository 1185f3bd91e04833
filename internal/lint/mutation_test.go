package lint

// Mutation meta-tests: reintroduce historical bugs into a scratch
// module and prove the analyzers fire on the buggy variant and stay
// silent on the fixed one. This is the test that keeps the analyzers
// honest — a checker that passes clean code but misses the bug it was
// built for is worse than none.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// scratchBufpool is a minimal stand-in for internal/bufpool: pinbalance
// matches Pool methods by package name, so the scratch module exercises
// the same code path as the real pool.
const scratchBufpool = `package bufpool

type Page []byte

type Pool struct{}

func (p *Pool) Pin(rel string, pageNo uint32) (Page, error) { return Page{}, nil }
func (p *Pool) Unpin(rel string, pageNo uint32) error       { return nil }
`

// extractSerialBuggy reproduces the PR-4 extractSerial leak verbatim in
// shape: decode reuses err, and its error return exits between Pin and
// the flush, leaking every pinned page. The chaos suite caught this at
// runtime; pinbalance must catch it at compile time.
const extractSerialBuggy = `package runtime

import "scratch/bufpool"

type rec struct{ data []byte }

func decode(pg bufpool.Page) (rec, error) { return rec{data: pg}, nil }

func extractSerial(p *bufpool.Pool, pages []uint32) ([]rec, error) {
	var out []rec
	var pinned []uint32
	flush := func() {
		for _, pn := range pinned {
			_ = p.Unpin("t", pn)
		}
		pinned = pinned[:0]
	}
	for _, pn := range pages {
		pg, err := p.Pin("t", pn)
		if err != nil {
			return nil, err
		}
		pinned = append(pinned, pn)
		r, err := decode(pg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		if len(pinned) >= 4 {
			flush()
		}
	}
	flush()
	return out, nil
}
`

// extractSerialFixed is the PR-4 fix: flush the pinned pages before the
// decode-error return.
const extractSerialFixed = `package runtime

import "scratch/bufpool"

type rec struct{ data []byte }

func decode(pg bufpool.Page) (rec, error) { return rec{data: pg}, nil }

func extractSerial(p *bufpool.Pool, pages []uint32) ([]rec, error) {
	var out []rec
	var pinned []uint32
	flush := func() {
		for _, pn := range pinned {
			_ = p.Unpin("t", pn)
		}
		pinned = pinned[:0]
	}
	for _, pn := range pages {
		pg, err := p.Pin("t", pn)
		if err != nil {
			return nil, err
		}
		pinned = append(pinned, pn)
		r, err := decode(pg)
		if err != nil {
			flush()
			return nil, err
		}
		out = append(out, r)
		if len(pinned) >= 4 {
			flush()
		}
	}
	flush()
	return out, nil
}
`

// engineWallClock reintroduces a wall-clock read into a modeled-cycle
// package (path suffix internal/engine); engineFixed uses pure time
// arithmetic instead.
const engineWallClock = `package engine

import "time"

func stamp() int64 { return time.Now().UnixNano() }
`

const engineFixed = `package engine

import "time"

func stamp() int64 { return time.Unix(0, 0).UnixNano() }
`

// hotLoopBuggy replants the pre-arena extraction loop in shape: a
// fresh PageResult and a fresh record slice per page, exactly the
// per-tuple churn the record arena removed. The allocation guard
// caught this at runtime (AllocsPerRun scaling with pages); hotcall
// must catch it at compile time, at depth 0.
const hotLoopBuggy = `package runtime

type pageResult struct {
	rows [][]float32
	data []float32
}

type runner struct {
	res pageResult
}

//dana:hotpath
func (r *runner) extractPage(tuples [][]float32, cols int) *pageResult {
	res := new(pageResult)
	res.data = make([]float32, 0, len(tuples)*cols)
	for _, t := range tuples {
		res.data = append(res.data, t...)
		res.rows = append(res.rows, res.data[len(res.data)-cols:])
	}
	return res
}
`

// hotLoopFixed is the arena-era shape: the result and its buffers live
// on the runner and are reused via self-appends.
const hotLoopFixed = `package runtime

type pageResult struct {
	rows [][]float32
	data []float32
}

type runner struct {
	res pageResult
}

//dana:hotpath
func (r *runner) extractPage(tuples [][]float32, cols int) *pageResult {
	res := &r.res
	res.data = res.data[:0]
	res.rows = res.rows[:0]
	for _, t := range tuples {
		res.data = append(res.data, t...)
		res.rows = append(res.rows, res.data[len(res.data)-cols:])
	}
	return res
}
`

// scratchObs is a minimal stand-in for internal/obs: obsguard matches
// receivers by package path suffix, and exempts the package itself.
const scratchObs = `package obs

type Counter struct{ n int64 }

func (c *Counter) Inc() {
	if c != nil {
		c.n++
	}
}

type Registry struct{ counters map[string]*Counter }

func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if r.counters == nil {
		r.counters = map[string]*Counter{}
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}
`

// poolLookupPerPage moves a registry lookup out of SetObs into the
// per-page function: every touch takes the registry's mutex and map,
// obs.Noop or not — the shape PR 3's overhead budget caught at runtime
// as a few per cent per page.
const poolLookupPerPage = `package bufpool

import "scratch/internal/obs"

type cache struct {
	reg  *obs.Registry
	hits *obs.Counter
}

func (c *cache) SetObs(r *obs.Registry) { c.reg = r }

func (c *cache) touch(pageNo uint32) {
	c.reg.Counter("bufpool.hits").Inc()
}
`

// poolLookupInSetup is the fix: the handle is resolved once, in SetObs.
const poolLookupInSetup = `package bufpool

import "scratch/internal/obs"

type cache struct {
	reg  *obs.Registry
	hits *obs.Counter
}

func (c *cache) SetObs(r *obs.Registry) { c.reg, c.hits = r, r.Counter("bufpool.hits") }

func (c *cache) touch(pageNo uint32) {
	c.hits.Inc()
}
`

const scratchFault = `package fault

import "errors"

var ErrVMTrap = errors.New("fault: strider vm trap")
`

// trapSevered formats the typed sentinel with %v, outside the packages
// faulterrors polices for every error: errors.Is(err, fault.ErrVMTrap)
// stops matching, so the page-retry → quarantine → CPU-fallback ladder
// (PR 4) reads a recoverable trap as a hard failure.
const trapSevered = `package engine

import (
	"fmt"

	"scratch/internal/fault"
)

func trap(vm int) error { return fmt.Errorf("strider %d: %v", vm, fault.ErrVMTrap) }
`

const trapWrapped = `package engine

import (
	"fmt"

	"scratch/internal/fault"
)

func trap(vm int) error { return fmt.Errorf("strider %d: %w", vm, fault.ErrVMTrap) }
`

// writeScratchModule lays out a scratch module and returns its root.
func writeScratchModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module scratch\n\ngo 1.21\n"
	for rel, src := range files {
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// analyzeScratch runs the WHOLE suite over a scratch module and fails
// on a finding from any analyzer but a: the roster (DESIGN.md "Static
// analysis") keeps each analyzer for a planted mutation only it catches.
func analyzeScratch(t *testing.T, files map[string]string, a *Analyzer) []Finding {
	t.Helper()
	ld, err := NewLoader(writeScratchModule(t, files))
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
	for _, f := range findings {
		if f.Analyzer != a.Name {
			t.Fatalf("expected only %s findings, got %s", a.Name, f)
		}
	}
	return findings
}

func TestPinBalanceCatchesExtractSerialRegression(t *testing.T) {
	buggy := analyzeScratch(t, map[string]string{
		"bufpool/bufpool.go":  scratchBufpool,
		"runtime/executor.go": extractSerialBuggy,
	}, PinBalance)
	if len(buggy) != 1 {
		t.Fatalf("buggy extractSerial: got %d findings, want exactly 1: %v", len(buggy), buggy)
	}
	if !strings.Contains(buggy[0].Message, "pinned page is not unpinned") {
		t.Fatalf("unexpected finding message: %s", buggy[0].Message)
	}

	fixed := analyzeScratch(t, map[string]string{
		"bufpool/bufpool.go":  scratchBufpool,
		"runtime/executor.go": extractSerialFixed,
	}, PinBalance)
	if len(fixed) != 0 {
		t.Fatalf("fixed extractSerial still flagged: %v", fixed)
	}
}

func TestHotAllocCatchesPerPageAllocationRegression(t *testing.T) {
	buggy := analyzeScratch(t, map[string]string{
		"runtime/executor.go": hotLoopBuggy,
	}, HotCall)
	if len(buggy) != 2 {
		t.Fatalf("buggy extraction loop: got %d findings, want 2 (new + make): %v", len(buggy), buggy)
	}
	if !strings.Contains(buggy[0].Message, "new in hot path") || !strings.Contains(buggy[1].Message, "make in hot path") {
		t.Fatalf("unexpected finding messages: %v", buggy)
	}

	fixed := analyzeScratch(t, map[string]string{
		"runtime/executor.go": hotLoopFixed,
	}, HotCall)
	if len(fixed) != 0 {
		t.Fatalf("reuse-idiom extraction loop still flagged: %v", fixed)
	}
}

func TestDeterminismCatchesWallClockRegression(t *testing.T) {
	buggy := analyzeScratch(t, map[string]string{
		"internal/engine/clock.go": engineWallClock,
	}, Determinism)
	if len(buggy) != 1 || !strings.Contains(buggy[0].Message, "time.Now") {
		t.Fatalf("wall-clock regression: got %v, want one time.Now finding", buggy)
	}

	fixed := analyzeScratch(t, map[string]string{
		"internal/engine/clock.go": engineFixed,
	}, Determinism)
	if len(fixed) != 0 {
		t.Fatalf("pure time arithmetic flagged: %v", fixed)
	}
}

func TestObsGuardCatchesPerPageRegistryLookup(t *testing.T) {
	files := map[string]string{"internal/obs/obs.go": scratchObs, "internal/bufpool/cache.go": poolLookupPerPage}
	buggy := analyzeScratch(t, files, ObsGuard)
	if len(buggy) != 1 || !strings.Contains(buggy[0].Message, "outside setup code (function touch)") {
		t.Fatalf("per-page lookup: got %v, want one lookup finding in touch", buggy)
	}
	files["internal/bufpool/cache.go"] = poolLookupInSetup
	if fixed := analyzeScratch(t, files, ObsGuard); len(fixed) != 0 {
		t.Fatalf("lookup in SetObs still flagged: %v", fixed)
	}
}

func TestFaultErrorsCatchesSeveredSentinel(t *testing.T) {
	files := map[string]string{"internal/fault/fault.go": scratchFault, "internal/engine/trap.go": trapSevered}
	buggy := analyzeScratch(t, files, FaultErrors)
	if len(buggy) != 1 || !strings.Contains(buggy[0].Message, "fault sentinel ErrVMTrap formatted with %v") {
		t.Fatalf("severed sentinel: got %v, want one sentinel finding", buggy)
	}
	files["internal/engine/trap.go"] = trapWrapped
	if fixed := analyzeScratch(t, files, FaultErrors); len(fixed) != 0 {
		t.Fatalf("%%w wrap still flagged: %v", fixed)
	}
}
