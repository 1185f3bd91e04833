package dana

// Overhead guard for the observability layer: training with the
// counters enabled must cost < 5% extra wall time over obs.Noop on an
// end-to-end train. The obs charge sites run per page / per epoch, never
// per batch or per tuple (the engine keeps a plain ledger and publishes
// it once an epoch), so the real overhead is far below the gate; the
// gate exists so a future change that accidentally puts an instrument in
// a hot loop fails loudly. Two legs: an LR train at merge 64 whose table
// does not fit its pool, so every epoch re-reads and re-extracts every
// page, and a cached LRMF train at merge 1, where a
// batch is one tuple and the engine is the whole op — the shape on which
// a per-batch instrument is a per-tuple one. A third leg is the first at
// Precision 8: with no record cache to hold woven pages beside, every
// epoch reweaves, which is as often as the weave stage's counters fire.

import (
	"fmt"
	"testing"
	"time"
)

// obsLeg is one workload shape the overhead budget is held on.
type obsLeg struct {
	workload string
	scale    float64
	merge    int
	// poolBytes sizes the buffer pool: below the table, every epoch goes
	// through the pool's and the Striders' per-page charge sites.
	poolBytes int64
	// precision is Config.Precision (0 = the accelerator path).
	precision int
}

// obsTimedEpochs is the length of one timed Train. The quantity under
// test is per epoch, so the epochs only lengthen the timed region: at 6
// a Train was ~17 ms and a scheduler hiccup read as tens of percent; at
// 30 it is ~85 ms.
const obsTimedEpochs = 30

// obsTrainer opens an engine on the leg's workload, with the counters on
// or off, warms it, and returns a function that times one Train.
func obsTrainer(t *testing.T, leg obsLeg, disable bool) func() float64 {
	t.Helper()
	eng, err := Open(Config{
		PageSize: 32 << 10, PoolBytes: leg.poolBytes,
		DisableObs: disable, Precision: leg.precision,
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
	a.SetEpochs(obsTimedEpochs)
	if err := eng.RegisterUDF(a, leg.merge); err != nil {
		t.Fatal(err)
	}
	train := func() float64 {
		start := time.Now()
		if _, err := eng.Train(a.Name, d.Rel.Name); err != nil {
			t.Fatal(err)
		}
		return time.Since(start).Seconds()
	}
	// Warm the pool and the process (JIT-free, but page cache, branch
	// predictors, and the allocator all settle on the first run).
	train()
	return train
}

func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement; skipped in -short mode")
	}
	for _, leg := range []obsLeg{
		{workload: "Remote Sensing LR", scale: 0.02, merge: 64, poolBytes: 1 << 20}, // 32 frames under ~95 pages
		{workload: "Netflix", scale: 0.01, merge: 1, poolBytes: 128 << 20},
		{workload: "Remote Sensing LR", scale: 0.01, merge: 64, poolBytes: 1 << 20, precision: 8}, // 32 frames under 46 pages
	} {
		name := leg.workload
		if leg.precision > 0 {
			name = fmt.Sprintf("%s k=%d", name, leg.precision)
		}
		t.Run(name, func(t *testing.T) { obsOverheadBudget(t, leg) })
	}
}

func obsOverheadBudget(t *testing.T, leg obsLeg) {
	// The per-batch instrument this test exists for reads +40 %.
	requireOverheadBudget(t, "observability", func() (on, off func() float64) {
		return obsTrainer(t, leg, false), obsTrainer(t, leg, true)
	})
}
