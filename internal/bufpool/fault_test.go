package bufpool

import (
	"errors"
	"testing"

	"dana/internal/cost"
	"dana/internal/fault"
	"dana/internal/obs"
	"dana/internal/storage"
)

// faultRel builds a small relation and a pool serving it.
func faultRel(t *testing.T, npages int) (*Pool, *storage.Relation) {
	t.Helper()
	schema := storage.NewSchema(
		storage.Column{Name: "a", Type: storage.TFloat32},
		storage.Column{Name: "b", Type: storage.TFloat32},
	)
	rel := storage.NewRelation("ft", schema, storage.PageSize8K)
	for rel.NumPages() < npages {
		if _, err := rel.Insert([]float64{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	p := New(npages+4, storage.PageSize8K, cost.Default().Disk)
	if err := p.AttachRelation(rel); err != nil {
		t.Fatal(err)
	}
	return p, rel
}

func rate(pt fault.Point, r float64) [fault.NumPoints]float64 {
	var rs [fault.NumPoints]float64
	rs[pt] = r
	return rs
}

func TestPinRecoversFromTransientReadFault(t *testing.T) {
	p, _ := faultRel(t, 2)
	p.SetFaults(fault.New(fault.Config{
		Seed: 1, Rates: rate(fault.PoolRead, 1), TransientAttempts: 2,
	}))
	pg, err := p.Pin("ft", 0)
	if err != nil {
		t.Fatalf("transient read fault should recover via retry: %v", err)
	}
	if pg == nil {
		t.Fatal("nil page on successful Pin")
	}
	if err := p.Unpin("ft", 0); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Retries < 2 {
		t.Fatalf("expected >=2 retries, got %d", st.Retries)
	}
	if st.BackoffSeconds <= 0 {
		t.Fatalf("retries must charge backoff, got %v", st.BackoffSeconds)
	}
	if st.Misses != 1 {
		t.Fatalf("one logical miss expected, got %d", st.Misses)
	}
}

func TestPinFailsTypedOnPersistentReadFault(t *testing.T) {
	p, _ := faultRel(t, 2)
	p.SetFaults(fault.New(fault.Config{
		Seed: 1, Rates: rate(fault.PoolRead, 1), TransientAttempts: -1,
	}))
	_, err := p.Pin("ft", 0)
	if !errors.Is(err, fault.ErrIOTransient) {
		t.Fatalf("want ErrIOTransient, got %v", err)
	}
	if n := p.PinnedCount(); n != 0 {
		t.Fatalf("failed Pin leaked %d pins", n)
	}
	// The pool must stay fully usable: detach faults and re-Pin.
	p.SetFaults(nil)
	if _, err := p.Pin("ft", 0); err != nil {
		t.Fatalf("pool wedged after failed Pin: %v", err)
	}
	if err := p.Unpin("ft", 0); err != nil {
		t.Fatal(err)
	}
}

func TestTornPageCaughtAndRereadRecovers(t *testing.T) {
	for _, pt := range []fault.Point{fault.PageTear, fault.PageBitFlip} {
		p, _ := faultRel(t, 2)
		p.SetFaults(fault.New(fault.Config{
			Seed: 7, Rates: rate(pt, 1), TransientAttempts: 1,
		}))
		pg, err := p.Pin("ft", 0)
		if err != nil {
			t.Fatalf("%v: transient corruption should recover: %v", pt, err)
		}
		if !pg.ChecksumOK() {
			t.Fatalf("%v: recovered frame still corrupt", pt)
		}
		if err := p.Unpin("ft", 0); err != nil {
			t.Fatal(err)
		}
		st := p.Stats()
		if st.ChecksumFailures < 1 {
			t.Fatalf("%v: corruption not counted (failures=%d)", pt, st.ChecksumFailures)
		}
		if st.Retries < 1 {
			t.Fatalf("%v: recovery must go through retry, got %d", pt, st.Retries)
		}
	}
}

func TestTornPageFailsTypedWhenPersistent(t *testing.T) {
	p, _ := faultRel(t, 2)
	p.SetFaults(fault.New(fault.Config{
		Seed: 7, Rates: rate(fault.PageTear, 1), TransientAttempts: -1,
	}))
	//danalint:ignore pinbalance -- Pin must fail with a typed fault; PinnedCount asserts no leak
	_, err := p.Pin("ft", 1)
	if !errors.Is(err, fault.ErrTornPage) {
		t.Fatalf("want ErrTornPage, got %v", err)
	}
	if n := p.PinnedCount(); n != 0 {
		t.Fatalf("failed Pin leaked %d pins", n)
	}
}

func TestCorruptionNeverReachesHeapSource(t *testing.T) {
	p, rel := faultRel(t, 1)
	p.SetFaults(fault.New(fault.Config{
		Seed: 3, Rates: rate(fault.PageBitFlip, 1), TransientAttempts: 1,
	}))
	if _, err := p.Pin("ft", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin("ft", 0); err != nil {
		t.Fatal(err)
	}
	// The injector corrupts the frame copy only; the relation's own
	// page must still be intact and checksum-clean.
	src, err := rel.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	if !src.ChecksumOK() {
		t.Fatal("heap source page was corrupted by frame-copy injection")
	}
	if err := rel.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumVerifiedVsSkippedCounters(t *testing.T) {
	reg := obs.New()
	p, _ := faultRel(t, 3)
	p.SetObs(reg)
	// No injector, no VerifyChecksums: misses skip verification.
	for pn := uint32(0); pn < 3; pn++ {
		if _, err := p.Pin("ft", pn); err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin("ft", pn); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Get(obs.PoolChecksumSkipped); got != 3 {
		t.Fatalf("skipped=%d, want 3", got)
	}
	if got := reg.Get(obs.PoolChecksumVerified); got != 0 {
		t.Fatalf("verified=%d, want 0", got)
	}
	// Attach a zero-rate injector: verification turns on.
	p.SetFaults(fault.New(fault.Config{Seed: 1}))
	if err := p.Invalidate(); err != nil {
		t.Fatal(err)
	}
	for pn := uint32(0); pn < 3; pn++ {
		if _, err := p.Pin("ft", pn); err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin("ft", pn); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Get(obs.PoolChecksumVerified); got != 3 {
		t.Fatalf("verified=%d, want 3", got)
	}
	if got := reg.Get(obs.PoolChecksumFailed); got != 0 {
		t.Fatalf("clean pages failed verification %d times", got)
	}
}

func TestVerifyChecksumsFlagCatchesRealCorruption(t *testing.T) {
	p, rel := faultRel(t, 2)
	p.VerifyChecksums = true
	// Stamp, then corrupt the heap page *after* stamping so the stored
	// checksum no longer matches (a genuinely torn heap, not injection).
	src, err := rel.Page(0)
	if err != nil {
		t.Fatal(err)
	}
	src[len(src)-1] ^= 0xFF
	//danalint:ignore pinbalance -- Pin must fail on the torn heap page
	_, err = p.Pin("ft", 0)
	if !errors.Is(err, fault.ErrTornPage) {
		t.Fatalf("want ErrTornPage for real heap corruption, got %v", err)
	}
	// Undo: the page becomes readable again.
	src[len(src)-1] ^= 0xFF
	//danalint:ignore pinbalance -- final Pin proves readability; the test ends holding it
	if _, err := p.Pin("ft", 0); err != nil {
		t.Fatalf("restored page still failing: %v", err)
	}
}

func TestLatencySpikeChargesIOClock(t *testing.T) {
	base, _ := faultRel(t, 4)
	for pn := uint32(0); pn < 4; pn++ {
		if _, err := base.Pin("ft", pn); err != nil {
			t.Fatal(err)
		}
		_ = base.Unpin("ft", pn)
	}
	spiked, _ := faultRel(t, 4)
	spiked.SetFaults(fault.New(fault.Config{
		Seed: 5, Rates: rate(fault.PoolLatency, 1), LatencySpikeSec: 0.25,
	}))
	for pn := uint32(0); pn < 4; pn++ {
		if _, err := spiked.Pin("ft", pn); err != nil {
			t.Fatal(err)
		}
		_ = spiked.Unpin("ft", pn)
	}
	d := spiked.Stats().IOSeconds - base.Stats().IOSeconds
	if d < 0.99 { // 4 spikes x 0.25s
		t.Fatalf("latency spikes added only %v simulated seconds", d)
	}
}

func TestZeroRateInjectorIsBitIdenticalToNil(t *testing.T) {
	plain, _ := faultRel(t, 4)
	inj, _ := faultRel(t, 4)
	inj.SetFaults(fault.New(fault.Config{Seed: 42}))
	for pn := uint32(0); pn < 4; pn++ {
		a, err := plain.Pin("ft", pn)
		if err != nil {
			t.Fatal(err)
		}
		b, err := inj.Pin("ft", pn)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("page %d byte %d differs under zero-rate injector", pn, i)
			}
		}
		_ = plain.Unpin("ft", pn)
		_ = inj.Unpin("ft", pn)
	}
	sa, sb := plain.Stats(), inj.Stats()
	if sa.IOSeconds != sb.IOSeconds || sa.Misses != sb.Misses || sb.Retries != 0 {
		t.Fatalf("zero-rate injector changed pool accounting: %+v vs %+v", sa, sb)
	}
}
