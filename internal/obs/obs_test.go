package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestCounterFloatHist(t *testing.T) {
	r := New()
	c := r.Counter("a.b")
	c.Add(3)
	c.Inc()
	if got := c.Load(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("Counter did not return the existing instrument")
	}
	f := r.Float("f")
	f.Add(1.5)
	f.Add(2.25)
	if got := f.Load(); got != 3.75 {
		t.Fatalf("float = %v, want 3.75", got)
	}
	h := r.Hist("h")
	for _, v := range []int64{0, 1, 2, 3, 1024} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 5 || s.Sum != 1030 || s.Min != 0 || s.Max != 1024 {
		t.Fatalf("hist snapshot = %+v", s)
	}
	if s.Buckets["0"] != 1 || s.Buckets["2^0"] != 1 || s.Buckets["2^1"] != 2 || s.Buckets["2^10"] != 1 {
		t.Fatalf("hist buckets = %+v", s.Buckets)
	}
}

// TestNoopIsInert: the disabled mode contract — every operation through
// obs.Noop (a nil registry) and the nil instruments it hands out must be
// a safe no-op that allocates nothing. This is what lets instrumented
// components ship with obs calls unconditionally compiled in.
func TestNoopIsInert(t *testing.T) {
	var r *Registry = Noop
	c := r.Counter("x")
	f := r.Float("y")
	h := r.Hist("z")
	ring := r.Ring()
	if c != nil || f != nil || h != nil || ring != nil {
		t.Fatal("nil registry must return nil instruments")
	}
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(1)
		c.Inc()
		_ = c.Load()
		f.Add(1.5)
		_ = f.Load()
		h.Observe(7)
		ring.Emit("ev", 1, 2)
		r.Trace("ev", 1, 2)
		r.Reset()
		_ = r.Get("x")
		_ = r.GetFloat("y")
		_ = ring.Events()
	})
	if allocs != 0 {
		t.Fatalf("noop path allocated %v times per run, want 0", allocs)
	}
	if s := r.Snapshot(); s == nil || s.Schema != SnapshotSchema || len(s.Counters) != 0 {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
}

// TestEnabledCounterDoesNotAllocate: the hot-path charge operation must
// be allocation-free when enabled, too.
func TestEnabledCounterDoesNotAllocate(t *testing.T) {
	r := New()
	c := r.Counter("hot")
	h := r.Hist("hist")
	allocs := testing.AllocsPerRun(100, func() {
		c.Add(17)
		h.Observe(17)
	})
	if allocs != 0 {
		t.Fatalf("enabled charge allocated %v times per run, want 0", allocs)
	}
}

func TestRingBoundsAndOrder(t *testing.T) {
	ring := NewRing(3)
	for i := int64(0); i < 5; i++ {
		ring.Emit("e", i, -i)
	}
	evs := ring.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i) + 2; ev.A != want || ev.Seq != uint64(want) {
			t.Fatalf("event %d = %+v, want A=%d", i, ev, want)
		}
	}
	if ring.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", ring.Dropped())
	}
	ring.Clear()
	if len(ring.Events()) != 0 || ring.Dropped() != 0 {
		t.Fatal("Clear did not empty the ring")
	}
	ring.Emit("after", 0, 0)
	if evs := ring.Events(); len(evs) != 1 || evs[0].Seq != 5 {
		t.Fatalf("post-clear events = %+v, want seq 5", evs)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("engine.cycles").Add(100)
	r.Float("bufpool.io_seconds").Add(0.25)
	r.Hist("h").Observe(9)
	r.Trace("epoch", 1, 2)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	if s.Schema != SnapshotSchema {
		t.Fatalf("round-trip schema %d, want %d", s.Schema, SnapshotSchema)
	}
	if s.Counters["engine.cycles"] != 100 || s.Floats["bufpool.io_seconds"] != 0.25 {
		t.Fatalf("round-trip lost counters: %+v", s)
	}
	if len(s.Events) != 1 || s.Events[0].Name != "epoch" {
		t.Fatalf("round-trip lost events: %+v", s.Events)
	}
	if s.Histograms["h"].Count != 1 {
		t.Fatalf("round-trip lost histograms: %+v", s.Histograms)
	}
}

func TestResetAndDeterministicExport(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Add(5)
	r.Hist("h").Observe(3)
	r.Float("f").Add(1)
	r.Trace("e", 0, 0)
	r.Reset()
	if r.Get("c") != 0 || r.GetFloat("f") != 0 || len(r.Ring().Events()) != 0 {
		t.Fatal("Reset left state behind")
	}
	c.Add(2) // handle survives reset
	if r.Get("c") != 2 {
		t.Fatal("counter handle died across Reset")
	}
	// Two registries with the same contents export identical bytes
	// (modeled counters only; no trace events, whose timestamps differ).
	a, b := New(), New()
	for _, reg := range []*Registry{a, b} {
		reg.Counter("x").Add(1)
		reg.Counter("y").Add(2)
		reg.Float("z").Add(0.5)
	}
	ja, _ := json.Marshal(a.Snapshot())
	jb, _ := json.Marshal(b.Snapshot())
	if string(ja) != string(jb) {
		t.Fatalf("snapshot export not deterministic:\n%s\n%s", ja, jb)
	}
}

// TestConcurrentCharges exercises the atomic paths under -race.
func TestConcurrentCharges(t *testing.T) {
	r := New()
	c := r.Counter("c")
	f := r.Float("f")
	h := r.Hist("h")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				f.Add(0.5)
				h.Observe(int64(i))
				r.Trace("t", int64(i), 0)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
	if f.Load() != 4000 {
		t.Fatalf("float = %v, want 4000", f.Load())
	}
	if h.snapshot().Count != 8000 {
		t.Fatalf("hist count = %d, want 8000", h.snapshot().Count)
	}
}
