package accessengine

import "sync/atomic"

// Arena is a flat float32 slab that backs a training run's extracted
// record batches: extents are reserved with a lock-free offset bump and
// sliced into per-tuple row views, so steady-state extraction performs
// no per-tuple (or per-page) heap allocation. The slab is allocated once
// per training run, Reset at the start of each epoch that fills the
// record cache, and retained across epochs; record batches
// sliced from it stay valid until the next Reset, which only happens
// after every consumer (engine stream, record cache) has either copied
// or finished with them.
//
// A reservation that does not fit falls back to an ordinary heap
// allocation — correctness never depends on the sizing estimate.
type Arena struct {
	data []float32
	off  atomic.Int64
}

// NewArena allocates a slab of the given float32 capacity.
func NewArena(capacity int) *Arena {
	if capacity < 0 {
		capacity = 0
	}
	return &Arena{data: make([]float32, capacity)}
}

// Reset reclaims the whole slab. The caller must ensure no live batch
// still references it (epoch barrier).
func (a *Arena) Reset() { a.off.Store(0) }

// Alloc reserves an extent of n float32 values, returned with length 0
// and capacity exactly n (so appends cannot cross into a neighboring
// extent). Safe for concurrent use by the extraction workers: the offset
// only moves by a compare-and-swap that keeps it within the slab, so a
// reservation that does not fit never moves it at all.
//
//dana:hotpath
func (a *Arena) Alloc(n int) []float32 {
	if n <= 0 {
		return nil
	}
	for {
		start := a.off.Load()
		end := start + int64(n)
		if end > int64(len(a.data)) {
			//danalint:ignore hotcall -- heap fallback for undersized slabs
			return make([]float32, 0, n)
		}
		if a.off.CompareAndSwap(start, end) {
			return a.data[start:start:end]
		}
	}
}
