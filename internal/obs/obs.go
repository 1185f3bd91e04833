// Package obs is DAnA's zero-dependency observability layer: atomic
// counters, power-of-two histograms, and a bounded trace-event ring,
// threaded through every hot layer of the simulator (buffer pool,
// Striders, execution engine, runtime). It exists because the paper's
// whole performance argument rests on static-schedule cycle estimation
// (§6.1) and per-component utilization breakdowns (Figure 10/12): a
// single opaque cycle total cannot show *where* modeled time goes, and
// a CI perf gate cannot consume stdout tables.
//
// Design rules:
//
//   - Observation never feeds back into the model. Counters are
//     additive mirrors of modeled statistics; removing every obs call
//     leaves cycle counts, trained models, and simulated seconds
//     bit-identical.
//   - Disabled mode is free. obs.Noop is a nil *Registry; every method
//     on a nil Registry, Counter, FloatCounter, Histogram, or Ring is a
//     nil-check no-op, so uninstrumented standalone uses of a subsystem
//     pay one predictable branch per site.
//   - Hot paths never look names up. Instrumented components resolve
//     *Counter handles once (SetObs) and charge through the pointers;
//     charge sites sit at page/batch/epoch granularity, not per tuple.
//
// The three consumers are Snapshot (a stable JSON export written into
// BENCH_<name>.json by cmd/danabench and gated in CI), `danactl
// stats`/`danactl trace` (human-readable per-query breakdowns), and
// invariant-asserting tests (e.g. the per-component engine cycle
// charges must sum exactly to the modeled total).
package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Noop is the disabled registry: every operation through it (and
// through the nil instrument handles it returns) is a no-op.
var Noop *Registry

// Counter is a monotonically-growing int64 counter. The zero value is
// usable; a nil *Counter ignores all writes.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// FloatCounter accumulates a float64 sum (e.g. simulated I/O seconds).
// A nil *FloatCounter ignores all writes.
type FloatCounter struct {
	name string
	bits atomic.Uint64
}

// Add accumulates v via a CAS loop on the float's bit pattern.
func (f *FloatCounter) Add(v float64) {
	if f == nil {
		return
	}
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Load returns the current sum (0 for nil).
func (f *FloatCounter) Load() float64 {
	if f == nil {
		return 0
	}
	return math.Float64frombits(f.bits.Load())
}

// histBuckets is the bucket count of a Histogram: bucket i holds values
// v with bits.Len64(v) == i, i.e. power-of-two ranges, which is enough
// resolution for cycle counts and nanosecond durations while keeping
// Observe branch-free.
const histBuckets = 65

// Histogram records an int64 distribution in power-of-two buckets.
// A nil *Histogram ignores all writes.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid when count > 0
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value (negative values clamp to bucket 0).
func (h *Histogram) Observe(v int64) { h.ObserveN(v, 1) }

// ObserveN records n observations of the value v (n < 1 records none),
// for callers that count equal observations locally and publish them
// off their hot path.
func (h *Histogram) ObserveN(v, n int64) {
	if h == nil || n < 1 {
		return
	}
	h.count.Add(n)
	h.sum.Add(v * n)
	for {
		old := h.min.Load()
		if v >= old {
			break
		}
		if h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old {
			break
		}
		if h.max.CompareAndSwap(old, v) {
			break
		}
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.buckets[b].Add(n)
}

// HistSnapshot is one histogram's exported state.
type HistSnapshot struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min"`
	Max     int64            `json:"max"`
	Buckets map[string]int64 `json:"buckets,omitempty"` // "2^k" -> count
}

func (h *Histogram) snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Min, s.Max = h.min.Load(), h.max.Load()
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[string]int64)
			}
			s.Buckets[bucketLabel(i)] = n
		}
	}
	return s
}

// Registry owns a namespace of instruments. A nil *Registry (obs.Noop)
// returns nil instruments from every constructor; instruments are
// created on first use and live for the registry's lifetime, so hot
// paths hold pointers instead of doing name lookups.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	floats   map[string]*FloatCounter
	hists    map[string]*Histogram
	ring     *Ring
}

// New creates an enabled registry with the default trace-ring capacity.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		floats:   make(map[string]*FloatCounter),
		hists:    make(map[string]*Histogram),
		ring:     NewRing(DefaultRingCap),
	}
}

// Counter returns (creating if needed) the named counter, or nil for a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Float returns (creating if needed) the named float counter.
func (r *Registry) Float(name string) *FloatCounter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.floats[name]
	if !ok {
		f = &FloatCounter{name: name}
		r.floats[name] = f
	}
	return f
}

// Hist returns (creating if needed) the named histogram.
func (r *Registry) Hist(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name}
		h.min.Store(math.MaxInt64)
		r.hists[name] = h
	}
	return h
}

// Ring returns the registry's trace ring (nil for a nil registry).
func (r *Registry) Ring() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}

// Trace appends one event to the trace ring.
func (r *Registry) Trace(name string, a, b int64) {
	if r == nil {
		return
	}
	r.ring.Emit(name, a, b)
}

// Get returns the named counter's current value without creating it
// (0 when absent or nil registry) — the programmatic read side tests
// and CLIs use.
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Load()
}

// GetFloat is Get for float counters.
func (r *Registry) GetFloat(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	f := r.floats[name]
	r.mu.Unlock()
	return f.Load()
}

// Reset zeroes every instrument and clears the trace ring. Instrument
// handles held by instrumented components stay valid.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, f := range r.floats {
		f.bits.Store(0)
	}
	for _, h := range r.hists {
		h.count.Store(0)
		h.sum.Store(0)
		h.min.Store(math.MaxInt64)
		h.max.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
	r.ring.Clear()
}
