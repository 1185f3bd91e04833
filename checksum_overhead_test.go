package dana

// Overhead guard for page checksums: training under a zero-rate fault
// schedule, which fires nothing but makes every pool miss verify its
// page checksum, must cost < 5% extra wall time over a run without a
// schedule, whose misses skip the check. The checksum is one pass over
// each page at pool-read time (cold path), and stamping is lazy — once
// per mutated page, not per insert — so the real overhead is small; the
// gate catches a future change that puts checksumming on a per-pin or
// per-tuple path. Every timed Train follows a ColdCache, so the verify
// path actually executes.

import (
	"testing"
	"time"

	"dana/internal/fault"
)

// checksumTimedTrains is how many ColdCache + Train cycles one timing
// covers. The verify pass runs once per cold Train (the pool holds the
// table, so only the first of its 6 epochs reads the disk; the rest
// replay the record cache): more epochs would dilute the quantity under
// test, more cycles only lengthen the timed region — one was ~9 ms, where
// a scheduler hiccup reads as tens of per cent.
const checksumTimedTrains = 5

// checksumTrainer returns a function that opens a fresh engine — where
// an engine's pages landed is a bias of its own, so no two timings share
// one — settles it on a warm-up Train, and times checksumTimedTrains
// cold-cache Trains, so every page goes through the disk-read (and, with
// verify, the checksum) path.
func checksumTrainer(t *testing.T, verify bool) func() float64 {
	return func() float64 {
		t.Helper()
		cfg := Config{PageSize: 32 << 10, PoolBytes: 128 << 20}
		if verify {
			cfg.Faults = fault.New(fault.Config{})
		}
		eng, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d, err := eng.LoadWorkload("Remote Sensing LR", 0.02, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, err := d.DSLAlgo(64)
		if err != nil {
			t.Fatal(err)
		}
		a.SetEpochs(6)
		if err := eng.RegisterUDF(a, 64); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Train(a.Name, d.Rel.Name); err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		for i := 0; i < checksumTimedTrains; i++ {
			if err := eng.ColdCache(); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Train(a.Name, d.Rel.Name); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start).Seconds()
	}
}

func TestChecksumOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short mode")
	}
	requireOverheadBudget(t, "checksum", func() (on, off func() float64) {
		return checksumTrainer(t, true), checksumTrainer(t, false)
	})
}
