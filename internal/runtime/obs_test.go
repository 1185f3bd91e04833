package runtime

// Observability invariants (the programmatic consumer of internal/obs):
// every counter the subsystems charge must agree exactly with the
// modeled statistics they mirror, the engine's per-component cycle
// charges must sum exactly to the modeled total, and turning obs off
// must not move a single modeled cycle or model bit.

import (
	"math"
	"testing"

	"dana/internal/obs"
)

func trainWithObs(t *testing.T, disable bool) (*System, *TrainResult) {
	t.Helper()
	opts := DefaultOptions()
	opts.PageSize = 8 << 10
	opts.Cost.PoolBytes = 32 << 20
	opts.MaxEpochs = 6
	opts.DisableObs = disable
	s := New(opts)
	d := deployScaled(t, s, "Remote Sensing LR", 0.01)
	a, err := d.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(6)
	if _, err := s.Register(a, 8, d.Tuples); err != nil {
		t.Fatal(err)
	}
	res, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	return s, res
}

// TestObsEngineCycleDecomposition: the per-component engine cycle
// charges sum exactly to the modeled total — both in the Stats struct
// and in the obs counters that mirror it.
func TestObsEngineCycleDecomposition(t *testing.T) {
	s, res := trainWithObs(t, false)
	e := res.Engine
	if got := e.SpanLoadCycles + e.SpanComputeCycles + e.MergeCycles; got != e.Cycles {
		t.Fatalf("span decomposition: load %d + compute %d + merge %d = %d, want total %d",
			e.SpanLoadCycles, e.SpanComputeCycles, e.MergeCycles, got, e.Cycles)
	}
	r := s.Obs()
	if got := r.Get(obs.EngineCycles); got != e.Cycles {
		t.Fatalf("obs %s = %d, stats total = %d", obs.EngineCycles, got, e.Cycles)
	}
	sum := r.Get(obs.EngineCyclesLoad) + r.Get(obs.EngineCyclesCompute) + r.Get(obs.EngineCyclesMerge)
	if sum != r.Get(obs.EngineCycles) {
		t.Fatalf("obs components sum to %d, total counter says %d", sum, r.Get(obs.EngineCycles))
	}
	if r.Get(obs.EngineTuples) != e.Tuples || r.Get(obs.EngineBatches) != e.Batches ||
		r.Get(obs.EngineInstrs) != e.Instructions {
		t.Fatalf("obs engine mirrors diverge: tuples %d/%d batches %d/%d instrs %d/%d",
			r.Get(obs.EngineTuples), e.Tuples, r.Get(obs.EngineBatches), e.Batches,
			r.Get(obs.EngineInstrs), e.Instructions)
	}
	// Work cannot exceed capacity: work + idle == threads * span over
	// merge batches; globally work+idle <= threads*total.
	if e.IdleCycles < 0 {
		t.Fatalf("negative idle cycles: %d", e.IdleCycles)
	}
	if u := e.Utilization(res.Design.Engine.Threads); u <= 0 || u > 1 {
		t.Fatalf("engine utilization %v outside (0,1]", u)
	}
}

// TestObsAccessAndPoolMirrors: strider and buffer-pool counters agree
// with the modeled stats structs, and pool hits+misses == page requests.
func TestObsAccessAndPoolMirrors(t *testing.T) {
	s, res := trainWithObs(t, false)
	r := s.Obs()
	a := res.Access
	if r.Get(obs.StriderPages) != a.Pages || r.Get(obs.StriderTuples) != a.Tuples ||
		r.Get(obs.StriderBytes) != a.Bytes || r.Get(obs.StriderCycles) != a.Cycles ||
		r.Get(obs.StriderCyclesTotal) != a.TotalCycles || r.Get(obs.StriderInstrs) != a.Instructions {
		t.Fatalf("obs strider mirrors diverge from access stats:\nobs  pages=%d tuples=%d bytes=%d cyc=%d tot=%d instr=%d\nstat %+v",
			r.Get(obs.StriderPages), r.Get(obs.StriderTuples), r.Get(obs.StriderBytes),
			r.Get(obs.StriderCycles), r.Get(obs.StriderCyclesTotal), r.Get(obs.StriderInstrs), a)
	}
	if a.Instructions <= 0 {
		t.Fatal("no strider VM instructions retired")
	}
	if u := a.Utilization(res.Design.NumStriders); u <= 0 || u > 1 {
		t.Fatalf("strider utilization %v outside (0,1]", u)
	}
	// Pool: every Pin is a hit or a miss, nothing else.
	p := res.Pool
	if r.Get(obs.PoolHits) != p.Hits || r.Get(obs.PoolMisses) != p.Misses {
		t.Fatalf("obs pool mirrors diverge: hits %d/%d misses %d/%d",
			r.Get(obs.PoolHits), p.Hits, r.Get(obs.PoolMisses), p.Misses)
	}
	if r.GetFloat(obs.PoolIOSeconds) != p.IOSeconds {
		t.Fatalf("obs io seconds %v != pool stats %v", r.GetFloat(obs.PoolIOSeconds), p.IOSeconds)
	}
	// Every epoch charges exactly the relation's page count through the
	// Collector (cached replays recharge too), so pages/epoch recovers
	// NumPages. Uncached epochs pin each page once; cached epochs pin
	// nothing — so pin requests == uncached epochs × pages/epoch.
	epochs := r.Get(obs.RuntimeEpochs)
	uncached := epochs - r.Get(obs.RuntimeEpochCached)
	pagesPerEpoch := a.Pages / epochs
	if p.Hits+p.Misses != uncached*pagesPerEpoch {
		t.Fatalf("pool requests %d != uncached epochs %d × pages/epoch %d",
			p.Hits+p.Misses, uncached, pagesPerEpoch)
	}
}

// TestObsRuntimeCountersAndTrace: epoch counters, record-cache hit
// rate, worker occupancy, and the trace ring.
func TestObsRuntimeCountersAndTrace(t *testing.T) {
	s, res := trainWithObs(t, false)
	r := s.Obs()
	if got := r.Get(obs.RuntimeEpochs); got != int64(res.Epochs) {
		t.Fatalf("obs epochs %d != result epochs %d", got, res.Epochs)
	}
	if r.Get(obs.RuntimeTrainRuns) != 1 {
		t.Fatalf("train runs = %d, want 1", r.Get(obs.RuntimeTrainRuns))
	}
	// Cache-enabled run: lookups == epochs; first epoch misses, the
	// rest hit.
	hits, misses := r.Get(obs.RuntimeCacheHits), r.Get(obs.RuntimeCacheMisses)
	if hits+misses != int64(res.Epochs) {
		t.Fatalf("cache hits %d + misses %d != epochs %d", hits, misses, res.Epochs)
	}
	if misses != 1 || hits != int64(res.Epochs-1) {
		t.Fatalf("cache hits/misses = %d/%d, want %d/1", hits, misses, res.Epochs-1)
	}
	if r.Get(obs.RuntimeEpochCached) != hits {
		t.Fatalf("cached epochs %d != cache hits %d", r.Get(obs.RuntimeEpochCached), hits)
	}
	if r.Get(obs.RuntimeEpochWallNs) <= 0 || r.Get(obs.RuntimeTrainWallNs) <= 0 {
		t.Fatal("wall-time counters did not advance")
	}
	h := r.Snapshot().Histograms[obs.HistEpochWallNs]
	if h.Count != int64(res.Epochs) {
		t.Fatalf("epoch wall histogram count %d != epochs %d", h.Count, res.Epochs)
	}
	// Trace ring: train.start, per-epoch events, train.done, in order.
	evs := r.Ring().Events()
	if len(evs) < 2+res.Epochs {
		t.Fatalf("trace ring has %d events, want >= %d", len(evs), 2+res.Epochs)
	}
	if evs[0].Name != obs.EvTrainStart {
		t.Fatalf("first event %q, want %q", evs[0].Name, obs.EvTrainStart)
	}
	last := evs[len(evs)-1]
	if last.Name != obs.EvTrainDone || last.A != int64(res.Epochs) || last.B != res.Engine.Cycles {
		t.Fatalf("last event %+v, want %s a=%d b=%d", last, obs.EvTrainDone, res.Epochs, res.Engine.Cycles)
	}
	nEpochEvents := 0
	for _, ev := range evs {
		if ev.Name == obs.EvEpoch || ev.Name == obs.EvEpochCached {
			nEpochEvents++
		}
	}
	if nEpochEvents != res.Epochs {
		t.Fatalf("trace has %d epoch events, want %d", nEpochEvents, res.Epochs)
	}
	// The Strider program was statically verified exactly once, at
	// accelerator build time, and admitted.
	if got := r.Get(obs.StriderVerifyRuns); got != 1 {
		t.Fatalf("verify runs = %d, want 1", got)
	}
	if got := r.Get(obs.StriderVerifyRejects); got != 0 {
		t.Fatalf("verify rejects = %d, want 0", got)
	}
}

// TestObsDisabledIsBitIdenticalAndDark: DisableObs leaves every modeled
// statistic and model bit unchanged, and records nothing.
func TestObsDisabledIsBitIdenticalAndDark(t *testing.T) {
	sOn, resOn := trainWithObs(t, false)
	sOff, resOff := trainWithObs(t, true)
	if resOn.Engine != resOff.Engine {
		t.Fatalf("engine stats diverge with obs off:\non  %+v\noff %+v", resOn.Engine, resOff.Engine)
	}
	if resOn.Access != resOff.Access {
		t.Fatalf("access stats diverge with obs off:\non  %+v\noff %+v", resOn.Access, resOff.Access)
	}
	if resOn.Pool != resOff.Pool {
		t.Fatalf("pool stats diverge with obs off:\non  %+v\noff %+v", resOn.Pool, resOff.Pool)
	}
	if resOn.SimulatedSeconds != resOff.SimulatedSeconds {
		t.Fatalf("simulated seconds diverge: %v vs %v", resOn.SimulatedSeconds, resOff.SimulatedSeconds)
	}
	if len(resOn.Model) != len(resOff.Model) {
		t.Fatalf("model lengths diverge: %d vs %d", len(resOn.Model), len(resOff.Model))
	}
	for i := range resOn.Model {
		if math.Float32bits(resOn.Model[i]) != math.Float32bits(resOff.Model[i]) {
			t.Fatalf("model[%d] diverges: %x vs %x", i,
				math.Float32bits(resOn.Model[i]), math.Float32bits(resOff.Model[i]))
		}
	}
	if sOff.Obs() != obs.Noop {
		t.Fatal("disabled system does not expose obs.Noop")
	}
	if s := sOff.Obs().Snapshot(); len(s.Counters) != 0 || len(s.Events) != 0 {
		t.Fatalf("dark system recorded state: %+v", s)
	}
	if sOn.Obs().Get(obs.EngineCycles) == 0 {
		t.Fatal("enabled system recorded nothing")
	}
}
