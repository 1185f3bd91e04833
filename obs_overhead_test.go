package dana

// Overhead guard for the observability layer: training with the
// counters enabled must cost < 5% extra wall time over obs.Noop on an
// end-to-end train. The obs charge sites run per page / per epoch, never
// per batch or per tuple (the engine keeps a plain ledger and publishes
// it once an epoch), so the real overhead is far below the gate; the
// gate exists so a future change that accidentally puts an instrument in
// a hot loop fails loudly. Two legs: an LR train at merge 64 that
// re-extracts every epoch, and a cached LRMF train at merge 1, where a
// batch is one tuple and the engine is the whole op — the shape on which
// a per-batch instrument is a per-tuple one.

import (
	"sort"
	"testing"
	"time"
)

// obsLeg is one workload shape the overhead budget is held on.
type obsLeg struct {
	workload string
	scale    float64
	merge    int
	noCache  bool
}

func trainWallOnce(t *testing.T, leg obsLeg, disable bool) time.Duration {
	t.Helper()
	eng, err := Open(Config{
		PageSize: 32 << 10, PoolBytes: 128 << 20,
		Workers: 1, NoExtractCache: leg.noCache, DisableObs: disable,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := eng.LoadWorkload(leg.workload, leg.scale, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.DSLAlgo(leg.merge)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(6)
	if err := eng.RegisterUDF(a, leg.merge); err != nil {
		t.Fatal(err)
	}
	// Warm the pool and the process (JIT-free, but page cache, branch
	// predictors, and the allocator all settle on the first run).
	if _, err := eng.Train(a.Name, d.Rel.Name); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := eng.Train(a.Name, d.Rel.Name); err != nil {
		t.Fatal(err)
	}
	return time.Since(start)
}

func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short mode")
	}
	for _, leg := range []obsLeg{
		{workload: "Remote Sensing LR", scale: 0.02, merge: 64, noCache: true},
		{workload: "Netflix", scale: 0.01, merge: 1},
	} {
		t.Run(leg.workload, func(t *testing.T) { obsOverheadBudget(t, leg) })
	}
}

func obsOverheadBudget(t *testing.T, leg obsLeg) {
	// Interleave on/off measurements so slow drift (thermal, noisy
	// neighbors) hits both sides equally, then compare the minima:
	// scheduler noise only ever adds time, so the fastest round is the
	// least-contaminated estimate of each side's true cost. A systematic
	// regression shows up in every attempt, so a budget miss is only
	// fatal if it reproduces across independent measurement attempts.
	measure := func() float64 {
		const rounds = 7
		var on, off []float64
		for i := 0; i < rounds; i++ {
			on = append(on, trainWallOnce(t, leg, false).Seconds())
			off = append(off, trainWallOnce(t, leg, true).Seconds())
		}
		best := func(xs []float64) float64 {
			s := append([]float64(nil), xs...)
			sort.Float64s(s)
			return s[0]
		}
		mOn, mOff := best(on), best(off)
		t.Logf("obs on %.3fms, off %.3fms, overhead %.2f%%", mOn*1e3, mOff*1e3, 100*(mOn/mOff-1))
		return mOn/mOff - 1
	}
	const budget = 0.05
	var overhead float64
	for attempt := 0; attempt < 3; attempt++ {
		if overhead = measure(); overhead <= budget {
			return
		}
	}
	t.Fatalf("observability overhead %.2f%% exceeds the 5%% budget in 3 consecutive measurements",
		100*overhead)
}
