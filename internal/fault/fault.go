// Package fault is a seeded, deterministic fault-injection framework
// for the DAnA simulator. An Injector is threaded through the storage /
// buffer-pool / Strider / runtime layers and decides, per injection
// point, whether a given operation fails: simulated disk I/O errors and
// latency spikes, torn or bit-flipped pages (caught by the per-page
// checksums the buffer pool verifies), Strider VM traps, and analytic
// cluster stalls or hard failures.
//
// Decisions are pure functions of (seed, injection point, operation
// key): two runs with the same schedule inject the identical faults, and
// the decision for one operation never depends on how the host
// interleaved the others — so the chaos suite is reproducible even under
// the parallel pipelined executor. Transient faults clear after a
// configurable number of attempts on the same operation, which is what
// makes retry-based recovery observable; a negative attempt budget makes
// every injected fault persistent, forcing the clean-failure paths.
//
// Every error the framework injects (and every recovery-path error the
// layers derive from one) wraps one of the typed sentinels below, so
// callers discriminate with errors.Is across package boundaries.
package fault

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Typed sentinel errors crossing package boundaries. Match with
// errors.Is; the concrete errors carry operation context.
var (
	// ErrIOTransient is a (possibly transient) simulated disk read error.
	ErrIOTransient = errors.New("transient I/O error")
	// ErrTornPage is a page whose stamped checksum does not match its
	// contents (torn write or bit rot), detected on buffer-pool read.
	ErrTornPage = errors.New("torn page: checksum mismatch")
	// ErrVMTrap is a Strider VM trap: the page walker faulted.
	ErrVMTrap = errors.New("strider VM trap")
	// ErrVerifyReject is a Strider program the static verifier refused
	// to admit: dispatching it could trap the VM on a conforming page.
	ErrVerifyReject = errors.New("strider program rejected by verifier")
	// ErrClusterDown is a hard analytic-cluster failure.
	ErrClusterDown = errors.New("analytic cluster down")
	// ErrClusterStall is a wedged analytic cluster (watchdog fired).
	ErrClusterStall = errors.New("analytic cluster stalled")
	// ErrEpochTimeout is an epoch that exceeded its deadline.
	ErrEpochTimeout = errors.New("epoch deadline exceeded")
	// ErrWorkerQuarantined is raised when every Strider worker has been
	// quarantined and extraction cannot proceed on the accelerator.
	ErrWorkerQuarantined = errors.New("all strider workers quarantined")
)

// IsAcceleratorFault reports whether err indicates the simulated
// accelerator (Striders, execution engine, or analytic cluster) failed
// while the underlying storage is still readable — the class of errors
// the runtime degrades gracefully from by falling back to the CPU
// trainer. Storage-level failures (ErrTornPage, ErrIOTransient) are
// excluded: a CPU trainer reads the same pages, so falling back cannot
// help.
func IsAcceleratorFault(err error) bool {
	return errors.Is(err, ErrVMTrap) ||
		errors.Is(err, ErrClusterDown) ||
		errors.Is(err, ErrClusterStall) ||
		errors.Is(err, ErrEpochTimeout) ||
		errors.Is(err, ErrWorkerQuarantined)
}

// Point is an injection point: where in the stack a fault class fires.
type Point uint8

const (
	// PoolRead fails a buffer-pool miss's simulated disk read.
	PoolRead Point = iota
	// PoolLatency adds a simulated latency spike to a pool read.
	PoolLatency
	// PageTear zeroes the tail of the bytes a pool read returns (a
	// torn write: only a prefix of the page made it to disk).
	PageTear
	// PageBitFlip flips one bit of the bytes a pool read returns.
	PageBitFlip
	// StriderTrap faults a Strider VM on one (vm, page) walk.
	StriderTrap
	// WorkerStall delays an extraction worker (real wall-clock sleep,
	// visible to the executor's epoch deadline).
	WorkerStall
	// ClusterDown hard-fails the analytic cluster at an epoch boundary.
	ClusterDown
	// ClusterStall wedges the analytic cluster at an epoch boundary.
	ClusterStall

	// NumPoints is the number of injection points.
	NumPoints int = iota
)

var pointNames = [NumPoints]string{
	"pool_read", "pool_latency", "page_tear", "page_bitflip",
	"strider_trap", "worker_stall", "cluster_down", "cluster_stall",
}

func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", int(p))
}

// Config is a fault schedule: per-point rates under one seed.
type Config struct {
	// Seed selects the pseudo-random fault pattern. The same seed and
	// rates reproduce the same faults on the same operations.
	Seed uint64
	// Rates is the per-point injection probability in [0, 1].
	Rates [NumPoints]float64
	// TransientAttempts is how many consecutive attempts of one faulted
	// operation fail before the fault clears (so a retry succeeds).
	// 0 means the default of 2; negative means faults never clear
	// (persistent), exhausting retry budgets.
	TransientAttempts int
	// StallDuration is the real sleep injected by WorkerStall and
	// ClusterStall (0 = 2ms).
	StallDuration time.Duration
	// LatencySpikeSec is the extra simulated seconds a PoolLatency spike
	// charges to the I/O clock (0 = 2ms simulated).
	LatencySpikeSec float64
}

const (
	defaultTransientAttempts = 2
	defaultStall             = 2 * time.Millisecond
	defaultLatencySpikeSec   = 2e-3
)

type attemptKey struct {
	point Point
	key   uint64
}

// Injector decides and applies faults. A nil *Injector is a valid,
// fully disabled injector: every hook is a nil-check returning the
// zero decision, so the instrumented layers carry no fault logic when
// injection is off.
type Injector struct {
	cfg    Config
	counts [NumPoints]atomic.Int64

	mu       sync.Mutex
	attempts map[attemptKey]int
}

// New builds an injector for the schedule.
func New(cfg Config) *Injector {
	if cfg.TransientAttempts == 0 {
		cfg.TransientAttempts = defaultTransientAttempts
	}
	if cfg.StallDuration == 0 {
		cfg.StallDuration = defaultStall
	}
	if cfg.LatencySpikeSec == 0 {
		cfg.LatencySpikeSec = defaultLatencySpikeSec
	}
	return &Injector{cfg: cfg, attempts: make(map[attemptKey]int)}
}

// Count returns how many times point p actually fired.
func (in *Injector) Count(p Point) int64 {
	if in == nil {
		return 0
	}
	return in.counts[p].Load()
}

// TotalCount sums fired faults across all points.
func (in *Injector) TotalCount() int64 {
	if in == nil {
		return 0
	}
	var t int64
	for p := 0; p < NumPoints; p++ {
		t += in.counts[p].Load()
	}
	return t
}

// Reset clears the attempt history (fired counts are kept), so a fresh
// training run sees the same fault pattern again.
func (in *Injector) Reset() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.attempts = make(map[attemptKey]int)
	in.mu.Unlock()
}

// splitmix64 is the SplitMix64 finalizer: a full-avalanche 64-bit
// mixer, so nearby keys decide independently.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashString folds a relation name into the decision key (FNV-1a).
func hashString(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// decide is the pure, order-independent fault decision for (point, key).
func (in *Injector) decide(p Point, key uint64) bool {
	rate := in.cfg.Rates[p]
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	h := splitmix64(in.cfg.Seed ^ (uint64(p)+1)*0xa24baed4963ee407 ^ splitmix64(key))
	return float64(h>>11)/float64(1<<53) < rate
}

// decideTransient is decide plus attempt tracking: a faulted operation
// keeps failing until it has been attempted TransientAttempts times,
// then clears — unless the schedule is persistent (negative budget).
func (in *Injector) decideTransient(p Point, key uint64) bool {
	if !in.decide(p, key) {
		return false
	}
	if in.cfg.TransientAttempts < 0 {
		in.counts[p].Add(1)
		return true
	}
	k := attemptKey{p, key}
	in.mu.Lock()
	in.attempts[k]++
	n := in.attempts[k]
	in.mu.Unlock()
	if n > in.cfg.TransientAttempts {
		return false
	}
	in.counts[p].Add(1)
	return true
}

func pageKey(rel string, pageNo uint32) uint64 {
	return hashString(rel) ^ uint64(pageNo)
}

// ReadFault decides whether the simulated disk read of (rel, pageNo)
// fails this attempt. The returned error wraps ErrIOTransient.
func (in *Injector) ReadFault(rel string, pageNo uint32) error {
	if in == nil {
		return nil
	}
	if in.decideTransient(PoolRead, pageKey(rel, pageNo)) {
		return fmt.Errorf("fault: injected read error on %s page %d: %w", rel, pageNo, ErrIOTransient)
	}
	return nil
}

// ReadLatencySec returns the extra simulated seconds to charge for the
// read of (rel, pageNo): a latency spike, or 0.
func (in *Injector) ReadLatencySec(rel string, pageNo uint32) float64 {
	if in == nil {
		return 0
	}
	if in.decide(PoolLatency, pageKey(rel, pageNo)) {
		in.counts[PoolLatency].Add(1)
		return in.cfg.LatencySpikeSec
	}
	return 0
}

// CorruptCopy returns the bytes a read of (rel, pageNo) delivers: src
// itself, or, when a tear or bit flip fires, a private copy of src with
// the fault applied. src — the heap's page image — is never written, so
// a retry re-reads intact bytes; the stamped page checksum catches the
// corrupted copy on verification.
func (in *Injector) CorruptCopy(rel string, pageNo uint32, src []byte) []byte {
	if in == nil || len(src) == 0 {
		return src
	}
	key := pageKey(rel, pageNo)
	if in.decideTransient(PageTear, key) {
		// Torn write: only a prefix of the page reached the platter.
		buf := slices.Clone(src)
		cut := len(buf)/2 + int(splitmix64(key)%uint64(len(buf)/2+1))
		for i := cut; i < len(buf); i++ {
			buf[i] = 0
		}
		// A page whose tail was already all zeroes tears invisibly;
		// guarantee the checksum trips by flipping one cut-point bit.
		if cut < len(buf) {
			buf[cut] ^= 0x01
		} else {
			buf[len(buf)-1] ^= 0x01
		}
		return buf
	}
	if in.decideTransient(PageBitFlip, key) {
		buf := slices.Clone(src)
		bit := splitmix64(key^0xb17f11b) % uint64(len(buf)*8)
		buf[bit/8] ^= 1 << (bit % 8)
		return buf
	}
	return src
}

// TrapFault decides whether Strider VM vmIdx traps walking pageNo this
// attempt. Keying by (vm, page) makes both recovery paths observable:
// a transient trap clears on same-VM retry; a persistent trap follows
// the VM, so quarantining it and re-running the epoch on the healthy
// Striders succeeds.
func (in *Injector) TrapFault(vmIdx, pageNo int) error {
	if in == nil {
		return nil
	}
	key := (uint64(vmIdx)+1)<<40 ^ uint64(uint32(pageNo))
	if in.decideTransient(StriderTrap, key) {
		return fmt.Errorf("fault: injected trap in strider %d on page %d: %w", vmIdx, pageNo, ErrVMTrap)
	}
	return nil
}

// StallDelay returns a real sleep to inject into the extraction worker
// handling pageNo of epoch, or 0. The sleep is wall-clock, so it is
// what trips the executor's epoch deadline.
func (in *Injector) StallDelay(epoch, pageNo int) time.Duration {
	if in == nil {
		return 0
	}
	if in.decide(WorkerStall, uint64(uint32(epoch))<<32|uint64(uint32(pageNo))) {
		in.counts[WorkerStall].Add(1)
		return in.cfg.StallDuration
	}
	return 0
}

// ClusterFault decides whether the analytic cluster fails at the start
// of epoch: a hard failure (ErrClusterDown) or a stall that the
// watchdog converts into ErrClusterStall after StallDuration.
func (in *Injector) ClusterFault(epoch int) error {
	if in == nil {
		return nil
	}
	key := uint64(uint32(epoch))
	if in.decide(ClusterDown, key) {
		in.counts[ClusterDown].Add(1)
		return fmt.Errorf("fault: injected cluster failure at epoch %d: %w", epoch, ErrClusterDown)
	}
	if in.decide(ClusterStall, key) {
		in.counts[ClusterStall].Add(1)
		time.Sleep(in.cfg.StallDuration)
		return fmt.Errorf("fault: cluster wedged at epoch %d (watchdog after %v): %w",
			epoch, in.cfg.StallDuration, ErrClusterStall)
	}
	return nil
}

// BackoffSec returns the capped exponential backoff (in simulated
// seconds) to charge before retry attempt. base doubles per attempt and
// is capped at 32x.
func BackoffSec(attempt int, base float64) float64 {
	if base <= 0 {
		base = 1e-3
	}
	mult := 1 << attempt
	if attempt > 5 || mult > 32 {
		mult = 32
	}
	return float64(base * float64(mult)) // rounded here: an inlined caller's add must not fuse it
}
