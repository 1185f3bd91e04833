package fault

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"
)

func rates(pairs ...interface{}) [NumPoints]float64 {
	var r [NumPoints]float64
	for i := 0; i < len(pairs); i += 2 {
		switch v := pairs[i+1].(type) {
		case float64:
			r[pairs[i].(Point)] = v
		case int:
			r[pairs[i].(Point)] = float64(v)
		}
	}
	return r
}

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if err := in.ReadFault("t", 0); err != nil {
		t.Fatal(err)
	}
	if v := in.ReadLatencySec("t", 0); v != 0 {
		t.Fatalf("latency %v on nil injector", v)
	}
	buf := []byte{1, 2, 3, 4}
	if got := in.CorruptCopy("t", 0, buf); &got[0] != &buf[0] {
		t.Fatal("nil injector returned other bytes than the source")
	}
	if err := in.TrapFault(0, 0); err != nil {
		t.Fatal(err)
	}
	if d := in.StallDelay(0, 0); d != 0 {
		t.Fatalf("stall %v on nil injector", d)
	}
	if err := in.ClusterFault(0); err != nil {
		t.Fatal(err)
	}
	if in.Count(PoolRead) != 0 || in.TotalCount() != 0 {
		t.Fatal("nil injector counted faults")
	}
	in.Reset() // must not panic
}

func TestZeroRatesNeverFire(t *testing.T) {
	in := New(Config{Seed: 7})
	for pn := uint32(0); pn < 2000; pn++ {
		if err := in.ReadFault("t", pn); err != nil {
			t.Fatal(err)
		}
		if err := in.TrapFault(int(pn)%4, int(pn)); err != nil {
			t.Fatal(err)
		}
	}
	if in.TotalCount() != 0 {
		t.Fatalf("zero-rate schedule fired %d faults", in.TotalCount())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Seed: 0xDA7A, Rates: rates(PoolRead, 0.2), TransientAttempts: -1}
	fire := func() []bool {
		in := New(cfg)
		out := make([]bool, 500)
		for pn := range out {
			out[pn] = in.ReadFault("tbl", uint32(pn)) != nil
		}
		return out
	}
	a, b := fire(), fire()
	nfired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("page %d: run A fired=%v, run B fired=%v", i, a[i], b[i])
		}
		if a[i] {
			nfired++
		}
	}
	// ~20% of 500; just check it is neither never nor always.
	if nfired < 40 || nfired > 200 {
		t.Fatalf("rate 0.2 fired %d/500 times", nfired)
	}
}

func TestSeedChangesPattern(t *testing.T) {
	mk := func(seed uint64) []bool {
		in := New(Config{Seed: seed, Rates: rates(PoolRead, 0.3), TransientAttempts: -1})
		out := make([]bool, 200)
		for pn := range out {
			out[pn] = in.ReadFault("tbl", uint32(pn)) != nil
		}
		return out
	}
	a, b := mk(1), mk(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("two seeds produced the identical fault pattern")
	}
}

func TestOrderIndependentUnderConcurrency(t *testing.T) {
	cfg := Config{Seed: 99, Rates: rates(StriderTrap, 0.25), TransientAttempts: -1}
	serial := New(cfg)
	want := make(map[int]bool)
	for pn := 0; pn < 400; pn++ {
		want[pn] = serial.TrapFault(pn%4, pn) != nil
	}
	conc := New(cfg)
	got := make([]bool, 400)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pn := w; pn < 400; pn += 8 {
				got[pn] = conc.TrapFault(pn%4, pn) != nil
			}
		}(w)
	}
	wg.Wait()
	for pn := 0; pn < 400; pn++ {
		if got[pn] != want[pn] {
			t.Fatalf("page %d: serial fired=%v, concurrent fired=%v", pn, want[pn], got[pn])
		}
	}
}

func TestTransientClearsAfterAttempts(t *testing.T) {
	in := New(Config{Seed: 3, Rates: rates(PoolRead, 1), TransientAttempts: 2})
	if err := in.ReadFault("t", 9); !errors.Is(err, ErrIOTransient) {
		t.Fatalf("attempt 1: got %v, want ErrIOTransient", err)
	}
	if err := in.ReadFault("t", 9); !errors.Is(err, ErrIOTransient) {
		t.Fatalf("attempt 2: got %v, want ErrIOTransient", err)
	}
	if err := in.ReadFault("t", 9); err != nil {
		t.Fatalf("attempt 3 should have cleared, got %v", err)
	}
	if got := in.Count(PoolRead); got != 2 {
		t.Fatalf("count %d, want 2", got)
	}
	// A different page has its own attempt budget.
	if err := in.ReadFault("t", 10); !errors.Is(err, ErrIOTransient) {
		t.Fatalf("independent page: got %v", err)
	}
}

func TestPersistentNeverClears(t *testing.T) {
	in := New(Config{Seed: 3, Rates: rates(PoolRead, 1), TransientAttempts: -1})
	for i := 0; i < 10; i++ {
		if err := in.ReadFault("t", 0); !errors.Is(err, ErrIOTransient) {
			t.Fatalf("attempt %d: got %v, want persistent ErrIOTransient", i, err)
		}
	}
}

func TestResetRestoresAttemptBudget(t *testing.T) {
	in := New(Config{Seed: 3, Rates: rates(StriderTrap, 1), TransientAttempts: 1})
	if err := in.TrapFault(0, 5); !errors.Is(err, ErrVMTrap) {
		t.Fatalf("got %v, want ErrVMTrap", err)
	}
	if err := in.TrapFault(0, 5); err != nil {
		t.Fatalf("cleared fault refired: %v", err)
	}
	in.Reset()
	if err := in.TrapFault(0, 5); !errors.Is(err, ErrVMTrap) {
		t.Fatalf("after Reset: got %v, want ErrVMTrap again", err)
	}
}

func TestCorruptCopyAltersOnlyTheCopy(t *testing.T) {
	in := New(Config{Seed: 11, Rates: rates(PageTear, 1)})
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	orig := bytes.Clone(src)
	buf := in.CorruptCopy("t", 3, src)
	if in.Count(PageTear) != 1 {
		t.Fatal("rate-1 tear did not fire")
	}
	if bytes.Equal(buf, orig) {
		t.Fatal("CorruptCopy fired but returned intact bytes")
	}
	if !bytes.Equal(src, orig) || &buf[0] == &src[0] {
		t.Fatal("CorruptCopy wrote the source instead of a copy")
	}
}

func TestCorruptCopyBitFlip(t *testing.T) {
	in := New(Config{Seed: 11, Rates: rates(PageBitFlip, 1)})
	src := make([]byte, 64)
	buf := in.CorruptCopy("t", 0, src)
	if in.Count(PageBitFlip) != 1 {
		t.Fatal("rate-1 bit flip did not fire")
	}
	flipped := 0
	for _, b := range buf {
		for ; b != 0; b &= b - 1 {
			flipped++
		}
	}
	if flipped != 1 {
		t.Fatalf("bit flip changed %d bits, want exactly 1", flipped)
	}
	if !bytes.Equal(src, make([]byte, 64)) {
		t.Fatal("bit flip reached the source")
	}
}

// TestCorruptCopyCopiesOnlyWhenItFires: a read no fault hits returns the
// source itself, allocating nothing, and a transient tear returns the
// source again once it clears.
func TestCorruptCopyCopiesOnlyWhenItFires(t *testing.T) {
	src := make([]byte, 64)
	quiet := New(Config{Seed: 11})
	if allocs := testing.AllocsPerRun(100, func() {
		if got := quiet.CorruptCopy("t", 0, src); &got[0] != &src[0] {
			t.Fatal("a read no fault hit returned a copy")
		}
	}); allocs != 0 {
		t.Fatalf("a read no fault hit allocated %v times", allocs)
	}
	torn := New(Config{Seed: 11, Rates: rates(PageTear, 1), TransientAttempts: 1})
	if got := torn.CorruptCopy("t", 0, src); &got[0] == &src[0] {
		t.Fatal("the first read of a torn page returned the source")
	}
	if got := torn.CorruptCopy("t", 0, src); &got[0] != &src[0] {
		t.Fatal("the tear did not clear on the second read")
	}
}

func TestClusterFaultTyping(t *testing.T) {
	down := New(Config{Seed: 1, Rates: rates(ClusterDown, 1)})
	if err := down.ClusterFault(0); !errors.Is(err, ErrClusterDown) {
		t.Fatalf("got %v, want ErrClusterDown", err)
	}
	stall := New(Config{Seed: 1, Rates: rates(ClusterStall, 1), StallDuration: time.Microsecond})
	if err := stall.ClusterFault(0); !errors.Is(err, ErrClusterStall) {
		t.Fatalf("got %v, want ErrClusterStall", err)
	}
}

func TestIsAcceleratorFault(t *testing.T) {
	for _, err := range []error{ErrVMTrap, ErrClusterDown, ErrClusterStall, ErrEpochTimeout, ErrWorkerQuarantined} {
		if !IsAcceleratorFault(err) {
			t.Errorf("%v should be an accelerator fault", err)
		}
	}
	for _, err := range []error{ErrTornPage, ErrIOTransient, errors.New("other")} {
		if IsAcceleratorFault(err) {
			t.Errorf("%v should NOT be an accelerator fault", err)
		}
	}
}

func TestBackoffSecCapped(t *testing.T) {
	base := 1e-3
	if got := BackoffSec(0, base); got != base {
		t.Fatalf("attempt 0: %v, want %v", got, base)
	}
	if got := BackoffSec(1, base); got != 2*base {
		t.Fatalf("attempt 1: %v, want %v", got, 2*base)
	}
	if got := BackoffSec(50, base); got != 32*base {
		t.Fatalf("attempt 50: %v, want capped %v", got, 32*base)
	}
	if got := BackoffSec(2, 0); got <= 0 {
		t.Fatalf("zero base must fall back to a positive default, got %v", got)
	}
}
