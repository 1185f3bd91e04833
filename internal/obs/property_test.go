package obs

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
)

// TestHistogramBucketEdges pins the power-of-two bucketing at every
// boundary: for each k, 2^k-1 lands in bucket k while 2^k and 2^k+1
// land in bucket k+1 (bucket index = bits.Len64), with zero and
// negative values clamping to bucket 0 and MaxInt64 filling the top
// finite bucket.
func TestHistogramBucketEdges(t *testing.T) {
	for k := uint(1); k <= 62; k++ {
		k := k
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			h := New().Hist("edges")
			lo := int64(1)<<k - 1 // 2^k - 1
			mid := int64(1) << k  // 2^k
			hi := int64(1)<<k + 1 // 2^k + 1
			h.Observe(lo)
			h.Observe(mid)
			h.Observe(hi)
			if got, want := h.buckets[k].Load(), int64(1); got != want {
				t.Errorf("bucket[%d] = %d, want %d (2^%d-1 belongs below the boundary)", k, got, want, k)
			}
			if got, want := h.buckets[k+1].Load(), int64(2); got != want {
				t.Errorf("bucket[%d] = %d, want %d (2^%d and 2^%d+1 belong above)", k+1, got, want, k, k)
			}
			// The bucket index is exactly bits.Len64 for positive values.
			for _, v := range []int64{lo, mid, hi} {
				if got, want := bits.Len64(uint64(v)), int(bucketFor(v)); got != want {
					t.Errorf("bucketFor(%d) = %d, want bits.Len64 = %d", v, want, got)
				}
			}
			s := h.snapshot()
			if s.Count != 3 || s.Sum != lo+mid+hi || s.Min != lo || s.Max != hi {
				t.Errorf("snapshot = %+v, want count 3, sum %d, min %d, max %d", s, lo+mid+hi, lo, hi)
			}
		})
	}

	t.Run("clamps", func(t *testing.T) {
		h := New().Hist("clamps")
		h.Observe(0)
		h.Observe(-1)
		h.Observe(math.MinInt64)
		h.Observe(math.MaxInt64) // int64's top value: Len64 = 63
		if got := h.buckets[0].Load(); got != 3 {
			t.Errorf("bucket[0] = %d, want 3 (zero and negatives clamp)", got)
		}
		if got := h.buckets[63].Load(); got != 1 {
			t.Errorf("bucket[63] = %d, want 1 (MaxInt64)", got)
		}
		var total int64
		for i := range h.buckets {
			total += h.buckets[i].Load()
		}
		if total != h.count.Load() {
			t.Errorf("bucket totals %d != count %d", total, h.count.Load())
		}
	})

	t.Run("nil", func(t *testing.T) {
		var h *Histogram
		h.Observe(42) // must not panic
	})
}

// bucketFor mirrors Observe's bucket selection for the property check.
func bucketFor(v int64) int64 {
	if v <= 0 {
		return 0
	}
	return int64(bits.Len64(uint64(v)))
}

// TestRingWraparound pins the trace ring's eviction behavior at exactly
// capacity and at capacity+1.
func TestRingWraparound(t *testing.T) {
	const capacity = 8
	r := NewRing(capacity)

	// Fill to exactly capacity: nothing drops, order preserved.
	for i := 0; i < capacity; i++ {
		r.Emit("ev", int64(i), 0)
	}
	evs := r.Events()
	if len(evs) != capacity {
		t.Fatalf("at capacity: %d events, want %d", len(evs), capacity)
	}
	if r.Dropped() != 0 {
		t.Fatalf("at capacity: dropped %d, want 0", r.Dropped())
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.A != int64(i) {
			t.Fatalf("event %d = {Seq:%d A:%d}, want {%d %d}", i, ev.Seq, ev.A, i, i)
		}
	}

	// One past capacity: the oldest event is evicted, newest wins.
	r.Emit("ev", int64(capacity), 0)
	evs = r.Events()
	if len(evs) != capacity {
		t.Fatalf("past capacity: %d events, want %d", len(evs), capacity)
	}
	if r.Dropped() != 1 {
		t.Fatalf("past capacity: dropped %d, want 1", r.Dropped())
	}
	if evs[0].Seq != 1 {
		t.Errorf("oldest surviving seq = %d, want 1", evs[0].Seq)
	}
	if last := evs[len(evs)-1]; last.Seq != uint64(capacity) || last.A != int64(capacity) {
		t.Errorf("newest event = {Seq:%d A:%d}, want {%d %d}", last.Seq, last.A, capacity, capacity)
	}

	// Wrapped more than twice over: still the newest capacity events,
	// oldest first, with contiguous ascending sequence numbers.
	const total = 2*capacity + capacity/2 + 1
	for i := capacity + 1; i < total; i++ {
		r.Emit("ev", int64(i), 0)
	}
	evs = r.Events()
	if len(evs) != capacity || cap(r.buf) != capacity {
		t.Fatalf("after %d events: %d held in a buffer of %d, want %d", total, len(evs), cap(r.buf), capacity)
	}
	for i, ev := range evs {
		if want := uint64(total - capacity + i); ev.Seq != want || ev.A != int64(want) {
			t.Fatalf("after %d events: event %d = {Seq:%d A:%d}, want {%d %d}", total, i, ev.Seq, ev.A, want, want)
		}
	}
	if r.Dropped() != total-capacity {
		t.Fatalf("after %d events: dropped %d, want %d", total, r.Dropped(), total-capacity)
	}

	// Clear empties the buffer but sequence numbers keep increasing.
	r.Clear()
	if len(r.Events()) != 0 || r.Dropped() != 0 {
		t.Fatal("Clear left state behind")
	}
	r.Emit("ev", 99, 0)
	if evs := r.Events(); len(evs) != 1 || evs[0].Seq != total {
		t.Fatalf("post-Clear event = %+v, want Seq %d", evs, total)
	}

	// Degenerate capacity clamps to 1.
	one := NewRing(0)
	one.Emit("a", 1, 0)
	one.Emit("b", 2, 0)
	if evs := one.Events(); len(evs) != 1 || evs[0].Name != "b" {
		t.Fatalf("cap-1 ring = %+v, want only the newest event", evs)
	}
	if one.Dropped() != 1 {
		t.Errorf("cap-1 ring dropped %d, want 1", one.Dropped())
	}

	var nilRing *Ring
	nilRing.Emit("x", 0, 0) // must not panic
	if nilRing.Events() != nil || nilRing.Dropped() != 0 {
		t.Error("nil ring should read as empty")
	}
}
