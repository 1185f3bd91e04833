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
// extent). Safe for concurrent use by the extraction workers.
//
//dana:hotpath
func (a *Arena) Alloc(n int) []float32 {
	if n <= 0 {
		return nil
	}
	end := a.off.Add(int64(n))
	if end > int64(len(a.data)) {
		a.off.Add(int64(-n)) // hand the unusable reservation back
		//danalint:ignore hotcall -- heap fallback for undersized slabs
		return make([]float32, 0, n)
	}
	start := int(end) - n
	return a.data[start : start : start+n]
}
