package verify_test

// Chaos suite: seeded fault-injection scenarios crossed with the
// differential harness's scenario generator. Every scenario draws a
// workload, page size, and fault schedule from one logged
// seed, trains through the full DAnA pipeline, and asserts one of two
// legal outcomes:
//
//   - recovery: the run completes; an undegraded run must be
//     bit-identical to the fault-free baseline (retries, quarantine
//     re-runs, and latency spikes may not perturb the model), and a
//     degraded run (CPU fallback) must land within Oracle-C tolerance;
//   - clean failure: the error is typed (errors.Is one of the
//     internal/fault sentinels), no page pins leak, and the system
//     trains fault-free afterwards to the bit-identical baseline —
//     proving pool and catalog invariants survived the crash path.
//
// Reproduction: every subtest is named seed=0x…; run it directly with
// `go test -run 'TestChaosSuite/seed=0x2a' ./internal/verify/`.
// The weekly randomized CI run overrides the seed base and scenario
// count via DANA_CHAOS_SEED and DANA_CHAOS_N.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"dana/internal/datagen"
	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/runtime"
	"dana/internal/verify"
)

// chaosScenarios is the default scenario count (the issue floor is 150).
const chaosScenarios = 160

// chaosWorkload is one training workload at chaos scale.
type chaosWorkload struct {
	name      string
	scale     float64
	mergeCoef int
	epochs    int
	tol       float64 // degraded-run model tolerance vs fault-free baseline
}

var chaosWorkloads = []chaosWorkload{
	{"Remote Sensing LR", 0.002, 16, 3, 2e-2},
	{"Remote Sensing SVM", 0.002, 16, 3, 2e-2},
	{"Patient", 0.01, 8, 3, 2e-2},
	{"Netflix", 0.0005, 1, 2, 2e-1},
}

// chaosSystem builds a ready-to-train system for the workload.
func chaosSystem(t *testing.T, wl chaosWorkload, pageSize int, mods ...func(*runtime.Options)) (*runtime.System, string, string) {
	t.Helper()
	opts := runtime.DefaultOptions()
	opts.PageSize = pageSize
	opts.Cost.PoolBytes = 32 << 20
	for _, mod := range mods {
		mod(&opts)
	}
	s := runtime.New(opts)
	w, err := datagen.ByName(wl.name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := datagen.Generate(w, wl.scale, pageSize, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Deploy(d); err != nil {
		t.Fatal(err)
	}
	a, err := d.DSLAlgo(wl.mergeCoef)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(wl.epochs)
	if _, err := s.Register(a, wl.mergeCoef, d.Tuples); err != nil {
		t.Fatal(err)
	}
	return s, a.Name, d.Rel.Name
}

// baselineCache memoizes the fault-free model per (workload, page size):
// every chaos scenario compares against the same golden run.
var (
	baselineMu    sync.Mutex
	baselineCache = map[string][]float32{}
)

func chaosBaseline(t *testing.T, wl chaosWorkload, pageSize int) []float32 {
	t.Helper()
	key := fmt.Sprintf("%s/%d", wl.name, pageSize)
	baselineMu.Lock()
	defer baselineMu.Unlock()
	if m, ok := baselineCache[key]; ok {
		return m
	}
	s, udf, table := chaosSystem(t, wl, pageSize)
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatalf("fault-free baseline failed: %v", err)
	}
	baselineCache[key] = res.Model
	return res.Model
}

func assertBitIdentical(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: model size %d != baseline %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: model[%d] = %v != baseline %v (bit-identity required)", what, i, got[i], want[i])
		}
	}
}

func assertWithinTol(t *testing.T, what string, got, want []float32, tol float64) {
	t.Helper()
	a := make([]float64, len(got))
	b := make([]float64, len(want))
	for i := range got {
		a[i] = float64(got[i])
	}
	for i := range want {
		b[i] = float64(want[i])
	}
	if err := verify.CompareModels(what, a, b, tol); err != nil {
		t.Error(err)
	}
}

// chaosTyped lists every error a chaos run is allowed to die with; any
// other failure (a panic is caught by the test harness itself) is a bug.
var chaosTyped = []error{
	fault.ErrIOTransient,
	fault.ErrTornPage,
	fault.ErrVMTrap,
	fault.ErrClusterDown,
	fault.ErrClusterStall,
	fault.ErrEpochTimeout,
	fault.ErrWorkerQuarantined,
}

func isTyped(err error) bool {
	for _, sentinel := range chaosTyped {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestChaosSuite runs chaosScenarios seeded fault-injection scenarios
// (override the count with DANA_CHAOS_N and the seed base with
// DANA_CHAOS_SEED for the randomized CI run).
func TestChaosSuite(t *testing.T) {
	n := envInt("DANA_CHAOS_N", chaosScenarios)
	base := envInt("DANA_CHAOS_SEED", 1)
	if testing.Short() {
		n = 24
	}
	for i := 0; i < n; i++ {
		seed := int64(base) + int64(i)
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			t.Parallel()
			runChaosScenario(t, seed)
		})
	}
}

func runChaosScenario(t *testing.T, seed int64) {
	g := verify.NewGen(seed)
	wl := chaosWorkloads[g.Intn(len(chaosWorkloads))]
	pageSize := g.PageSize()
	// No walker-count axis: t.Parallel subtests cannot set GOMAXPROCS, so
	// every scenario walks at the test binary's own. runtime's
	// TestTrapOutcomesIgnoreHostParallelism and
	// TestPoolLedgerIgnoresHostParallelism sweep it. The axis's draw
	// stays, so a seed still names the schedule it always did.
	_ = g.Intn(4)

	// Fault schedule: one primary injection point, sometimes a second,
	// at a drawn rate and transience.
	var rates [fault.NumPoints]float64
	rate := []float64{0.01, 0.05, 0.25, 1.0}[g.Intn(4)]
	primary := fault.Point(g.Intn(fault.NumPoints))
	rates[primary] = rate
	if g.Intn(3) == 0 {
		secondary := fault.Point(g.Intn(fault.NumPoints))
		rates[secondary] = []float64{0.01, 0.05, 0.25, 1.0}[g.Intn(4)]
	}
	transient := []int{1, 2, -1}[g.Intn(3)]
	cold := g.Intn(2) == 0
	timeout := g.Intn(12) == 0
	disableFallback := g.Intn(4) == 0

	cfg := fault.Config{
		Seed:              uint64(seed) * 0x9E3779B97F4A7C15,
		Rates:             rates,
		TransientAttempts: transient,
		StallDuration:     200 * time.Microsecond,
		LatencySpikeSec:   2e-3,
	}
	mods := []func(*runtime.Options){
		func(o *runtime.Options) {
			o.Faults = fault.New(cfg)
			o.DisableCPUFallback = disableFallback
			if timeout {
				o.EpochTimeout = time.Nanosecond
			}
		},
	}
	baseline := chaosBaseline(t, wl, pageSize)
	s, udf, table := chaosSystem(t, wl, pageSize, mods...)
	if cold {
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
	}

	res, err := s.Train(udf, table)
	if s.Pool().PinnedCount() != 0 {
		t.Errorf("leaked page pins (err=%v)", err)
	}
	if err != nil {
		// Outcome (b): clean typed failure with intact invariants.
		if !isTyped(err) {
			t.Fatalf("untyped chaos failure: %v", err)
		}
		// The system must remain fully usable: detach the schedule and
		// the same system must train to the bit-identical baseline.
		s.Opts.Faults = nil
		s.DB.Pool.SetFaults(nil)
		s.Opts.EpochTimeout = 0
		after, aerr := s.Train(udf, table)
		if aerr != nil {
			t.Fatalf("system unusable after clean failure (%v): %v", err, aerr)
		}
		if after.Degraded {
			t.Fatal("fault-free retrain reported degradation")
		}
		assertBitIdentical(t, "post-failure retrain", after.Model, baseline)
		return
	}

	// Outcome (a): recovery.
	if res.Degraded {
		if disableFallback {
			t.Fatal("run degraded with DisableCPUFallback set")
		}
		assertWithinTol(t, fmt.Sprintf("degraded %s", wl.name), res.Model, baseline, wl.tol)
		if got := s.Obs().Get(obs.RuntimeCPUFallbacks); got != 1 {
			t.Errorf("degraded run recorded %d cpu_fallbacks, want 1", got)
		}
		return
	}
	assertBitIdentical(t, "recovered run", res.Model, baseline)
}

// --- Mutation meta-tests ------------------------------------------------
//
// Each recovery mechanism must be load-bearing: outlasting its fixed
// budget, or turning it off through its public setting, flips a scenario
// from recovery to failure/degradation, proving the chaos suite's green
// runs actually exercise the path.

// everyOp schedules a fault at point p on every operation, failing
// attempts times running before it clears (negative: it never clears).
func everyOp(p fault.Point, seed uint64, attempts int) func(*runtime.Options) {
	return func(o *runtime.Options) {
		var rates [fault.NumPoints]float64
		rates[p] = 1.0
		o.Faults = fault.New(fault.Config{Seed: seed, Rates: rates, TransientAttempts: attempts})
	}
}

// TestChaosMetaReadRetryLoadBearing: a transient disk fault on every
// page pins the pool's read-retry budget from both sides. A fault that
// fails three attempts running is absorbed by the three re-reads, bit-
// identical to the fault-free run; one that fails four outlasts them and
// the read fails typed.
func TestChaosMetaReadRetryLoadBearing(t *testing.T) {
	wl := chaosWorkloads[0]
	s, udf, table := chaosSystem(t, wl, 8<<10, everyOp(fault.PoolRead, 99, 3))
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatalf("retry path should absorb three failed reads a page: %v", err)
	}
	if res.Degraded {
		t.Fatal("storage retries must not degrade the run")
	}
	if got, misses := s.Obs().Get(obs.PoolReadRetries), s.Pool().Stats().Misses; misses == 0 || got != 3*misses {
		t.Errorf("%d pool read retries over %d misses, want 3 a miss", got, misses)
	}
	assertBitIdentical(t, "retried run", res.Model, chaosBaseline(t, wl, 8<<10))

	s2, udf2, table2 := chaosSystem(t, wl, 8<<10, everyOp(fault.PoolRead, 99, 4))
	if err := s2.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Train(udf2, table2); !errors.Is(err, fault.ErrIOTransient) {
		t.Fatalf("four failed reads a page: got %v, want ErrIOTransient", err)
	}
	if s2.Pool().PinnedCount() != 0 {
		t.Error("failed run leaked page pins")
	}
}

// TestChaosMetaPageRetryLoadBearing: a transient Strider trap on every
// page pins the same-Strider re-walk budget from both sides. A trap that
// fires three walks running clears within the three re-walks (no
// quarantine, bit-identical to the fault-free run); one that fires four
// escalates every trap to quarantine until the pool drains and the run
// degrades: the retry path is what keeps the accelerator up.
func TestChaosMetaPageRetryLoadBearing(t *testing.T) {
	wl := chaosWorkloads[0]
	s, udf, table := chaosSystem(t, wl, 8<<10, everyOp(fault.StriderTrap, 77, 3))
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("transient traps should clear within the page-retry budget")
	}
	if got := s.Obs().Get(obs.RuntimeQuarantines); got != 0 {
		t.Errorf("retry-absorbed traps still quarantined %d workers", got)
	}
	if got := s.Obs().Get(obs.RuntimePageRetries); got == 0 {
		t.Error("no page retries recorded")
	}
	assertBitIdentical(t, "trap-retried run", res.Model, chaosBaseline(t, wl, 8<<10))

	s2, udf2, table2 := chaosSystem(t, wl, 8<<10, everyOp(fault.StriderTrap, 77, 4))
	res2, err := s2.Train(udf2, table2)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Degraded {
		t.Fatal("traps outlasting the page-retry budget should degrade the run")
	}
	if got := s2.Obs().Get(obs.RuntimeQuarantines); got == 0 {
		t.Error("no quarantines recorded on the trapping run")
	}
}

// TestChaosMetaFallbackLoadBearing: with the whole Strider pool
// persistently trapping, the CPU fallback is the only way to finish;
// disabling it flips the run to a typed quarantine failure.
func TestChaosMetaFallbackLoadBearing(t *testing.T) {
	wl := chaosWorkloads[0]
	sched := everyOp(fault.StriderTrap, 55, -1)

	s, udf, table := chaosSystem(t, wl, 8<<10, sched)
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("persistent trap storm should degrade the run")
	}
	if got := s.Obs().Get(obs.RuntimeCPUFallbacks); got != 1 {
		t.Errorf("cpu_fallbacks = %d, want 1", got)
	}
	assertWithinTol(t, "fallback run", res.Model, chaosBaseline(t, wl, 8<<10), wl.tol)

	s2, udf2, table2 := chaosSystem(t, wl, 8<<10, sched,
		func(o *runtime.Options) { o.DisableCPUFallback = true })
	if _, err := s2.Train(udf2, table2); !errors.Is(err, fault.ErrWorkerQuarantined) {
		t.Fatalf("without fallback: got %v, want ErrWorkerQuarantined", err)
	}
}

// TestChaosMetaChecksumLoadBearing: page corruption on the disk-read
// copy is caught by the per-page checksum and healed by re-reading the
// intact source; when the corruption is persistent the read fails typed
// as a torn page instead of silently training on garbage.
func TestChaosMetaChecksumLoadBearing(t *testing.T) {
	wl := chaosWorkloads[0]
	s, udf, table := chaosSystem(t, wl, 8<<10, everyOp(fault.PageTear, 33, 1))
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Train(udf, table)
	if err != nil {
		t.Fatalf("transient torn pages should heal via re-read: %v", err)
	}
	if res.Degraded {
		t.Fatal("checksum recovery must not degrade the run")
	}
	if got := s.Obs().Get(obs.PoolChecksumFailed); got == 0 {
		t.Error("no checksum failures recorded; the reject path never fired")
	}
	assertBitIdentical(t, "healed run", res.Model, chaosBaseline(t, wl, 8<<10))

	// Mutation: persistent corruption — the reject path must surface the
	// typed torn-page error rather than feed garbage to the Striders.
	s2, udf2, table2 := chaosSystem(t, wl, 8<<10, everyOp(fault.PageTear, 33, -1))
	if err := s2.DropCaches(); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Train(udf2, table2); !errors.Is(err, fault.ErrTornPage) {
		t.Fatalf("persistent corruption: got %v, want ErrTornPage", err)
	}
	if s2.Pool().PinnedCount() != 0 {
		t.Error("failed run leaked page pins")
	}
}
