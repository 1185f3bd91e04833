package obs

import (
	"sync"
	"time"
)

// DefaultRingCap bounds the trace ring: events are epoch/query-
// granularity, so 4096 covers thousands of epochs before wrapping.
const DefaultRingCap = 4096

// Event is one trace-ring entry. Events are observational only — wall
// timestamps are nondeterministic, which is why they live in the trace
// export and never in modeled statistics.
type Event struct {
	Seq  uint64 `json:"seq"`
	AtNs int64  `json:"at_ns"` // wall clock, unix nanoseconds
	Name string `json:"name"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
}

// Ring is a bounded trace-event buffer: the newest RingCap events win.
// A nil *Ring ignores all writes. Emission is mutex-guarded — events
// fire at epoch granularity, far off any hot path.
type Ring struct {
	mu      sync.Mutex
	buf     []Event
	head    int // index of the oldest event once buf is full (0 before)
	seq     uint64
	dropped uint64
}

// NewRing creates a ring holding up to capacity events (min 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, 0, capacity)}
}

// Emit appends one event, evicting the oldest when full.
func (r *Ring) Emit(name string, a, b int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ev := Event{Seq: r.seq, AtNs: time.Now().UnixNano(), Name: name, A: a, B: b}
	r.seq++
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.head] = ev
	r.head = (r.head + 1) % len(r.buf)
	r.dropped++
}

// Events returns the buffered events, oldest first.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.buf))
	n := copy(out, r.buf[r.head:])
	copy(out[n:], r.buf[:r.head])
	return out
}

// Dropped returns how many events were evicted by wraparound.
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Clear empties the ring (sequence numbers keep increasing).
func (r *Ring) Clear() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf, r.head = r.buf[:0], 0
	r.dropped = 0
}
