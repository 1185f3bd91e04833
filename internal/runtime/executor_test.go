package runtime

import (
	"fmt"
	"math"
	hostrt "runtime"
	"testing"

	"dana/internal/accessengine"
	"dana/internal/backend"
	"dana/internal/fault"
	"dana/internal/hdfg"
	"dana/internal/obs"
	"dana/internal/storage"
	"dana/internal/strider"
)

// spillPoolBytes is a pool of 16 frames at the tests' 8 KB pages: one
// serial group of the widest Strider array, and smaller than every table
// a spill leg trains on.
const spillPoolBytes = 16 * storage.PageSize8K

// trainConfigured runs one full Train of a workload at GOMAXPROCS procs
// (where the executor takes its walker count from) and returns the
// result. spill shrinks the pool below the table, so every epoch
// re-walks the heap on the calling goroutine into its one recycled
// result; otherwise the table fits, epoch 1 extracts into fresh results
// on min(procs, Striders) walkers and later epochs replay the record
// cache. mods adjust the Options before the system is built (fault
// schedules, timeouts).
func trainConfigured(t *testing.T, workload string, scale float64, mergeCoef, epochs, procs int, spill bool, mods ...func(*Options)) *TrainResult {
	t.Helper()
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(procs))
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.Cost.PoolBytes = 32 << 20
	if spill {
		opts.Cost.PoolBytes = spillPoolBytes
	}
	opts.MaxEpochs = epochs
	for _, mod := range mods {
		mod(&opts)
	}
	s := New(opts)
	d := deployScaled(t, s, workload, scale)
	if fits := d.Rel.NumPages() <= s.Pool().NumFrames(); fits == spill {
		t.Fatalf("%s: %d pages in %d frames, spill=%v", workload, d.Rel.NumPages(), s.Pool().NumFrames(), spill)
	}
	a, err := d.DSLAlgo(mergeCoef)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(epochs)
	if _, err := s.Register(a, mergeCoef, d.Tuples); err != nil {
		t.Fatal(err)
	}
	res, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pool().PinnedCount() != 0 {
		t.Fatalf("%s GOMAXPROCS=%d: leaked page pins", workload, procs)
	}
	return res
}

// requireSameModeled fails unless got trained the same model bits, epoch
// count and modeled cycle stats as want — and, when sim is non-nil, the
// same simulated seconds as sim (a run over the same pool: a table that
// spills pays its disk reads every epoch, so simulated seconds are only
// comparable between runs that share a pool size and link).
func requireSameModeled(t *testing.T, name string, got, want, sim *TrainResult) {
	t.Helper()
	if got.Epochs != want.Epochs {
		t.Errorf("%s: epochs %d != %d", name, got.Epochs, want.Epochs)
	}
	if len(got.Model) != len(want.Model) {
		t.Fatalf("%s: model size %d != %d", name, len(got.Model), len(want.Model))
	}
	for i := range got.Model {
		if math.Float32bits(got.Model[i]) != math.Float32bits(want.Model[i]) {
			t.Fatalf("%s: model[%d] = %v != %v (not bit-identical)", name, i, got.Model[i], want.Model[i])
		}
	}
	if got.Engine != want.Engine {
		t.Errorf("%s: engine stats %+v != %+v", name, got.Engine, want.Engine)
	}
	if got.Access != want.Access {
		t.Errorf("%s: access stats %+v != %+v", name, got.Access, want.Access)
	}
	if sim != nil && got.SimulatedSeconds != sim.SimulatedSeconds {
		t.Errorf("%s: simulated %v != %v", name, got.SimulatedSeconds, sim.SimulatedSeconds)
	}
}

// TestParallelExecutorDeterminism: the walkers (and the record cache)
// must change host wall-clock only. Model bits, epoch counts and modeled
// cycle stats are bit-identical to the one-goroutine run that re-walks a
// larger-than-pool table every epoch, and simulated seconds to the
// one-goroutine run over the same pool, on LR, SVM, and LRMF.
func TestParallelExecutorDeterminism(t *testing.T) {
	cases := []struct {
		workload  string
		scale     float64
		mergeCoef int
		epochs    int
	}{
		{"Remote Sensing LR", 0.002, 16, 4},
		{"Remote Sensing SVM", 0.002, 16, 4},
		{"Netflix", 0.0015, 1, 2},
	}
	for _, tc := range cases {
		t.Run(tc.workload, func(t *testing.T) {
			serialSpill := trainConfigured(t, tc.workload, tc.scale, tc.mergeCoef, tc.epochs, 1, true)
			serialFits := trainConfigured(t, tc.workload, tc.scale, tc.mergeCoef, tc.epochs, 1, false)
			requireSameModeled(t, "serial+cache", serialFits, serialSpill, nil)
			for _, cfg := range []struct {
				name  string
				procs int
				spill bool
			}{
				{"parallel8+cache", 8, false},
				{"parallel4+spill", 4, true}, // a table that spills has one goroutine at any GOMAXPROCS
			} {
				got := trainConfigured(t, tc.workload, tc.scale, tc.mergeCoef, tc.epochs, cfg.procs, cfg.spill)
				sim := serialFits
				if cfg.spill {
					sim = serialSpill
				}
				requireSameModeled(t, cfg.name, got, serialSpill, sim)
			}
		})
	}
}

// TestExtractCacheSkipsPoolAndInvalidates: epochs >= 2 of a cached run
// must bypass the buffer pool entirely; DropCaches must force full
// re-extraction (with re-charged disk reads), and a heap mutation must
// invalidate the cached records.
func TestExtractCacheSkipsPoolAndInvalidates(t *testing.T) {
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.Cost.PoolBytes = 32 << 20
	opts.MaxEpochs = 3
	s := New(opts)
	d := deployScaled(t, s, "Remote Sensing LR", 0.002)
	a, err := d.DSLAlgo(16)
	if err != nil {
		t.Fatal(err)
	}
	a.SetEpochs(3)
	if _, err := s.Register(a, 16, d.Tuples); err != nil {
		t.Fatal(err)
	}

	// Cold run: epoch 1 reads from disk and fills the cache; epochs 2-3
	// replay it, so the pool sees each page exactly once.
	cold, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Pool.Misses != int64(d.Rel.NumPages()) {
		t.Errorf("cold run: %d misses, want one per page (%d)", cold.Pool.Misses, d.Rel.NumPages())
	}
	if cold.Pool.Hits != 0 {
		t.Errorf("cold run: %d pool hits; cached epochs should bypass the pool", cold.Pool.Hits)
	}

	// A second Train replays the cache: no pool traffic at all.
	s.Pool().ResetStats()
	warm, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Pool.Hits != 0 || warm.Pool.Misses != 0 {
		t.Errorf("cached run touched the pool: %+v", warm.Pool)
	}
	if warm.SimulatedSeconds >= cold.SimulatedSeconds {
		t.Errorf("cached run simulated %v not below cold %v", warm.SimulatedSeconds, cold.SimulatedSeconds)
	}

	// DropCaches: the next run must re-read every page from disk.
	if err := s.DropCaches(); err != nil {
		t.Fatal(err)
	}
	s.Pool().ResetStats()
	recold, err := s.Train(a.Name, d.Rel.Name)
	if err != nil {
		t.Fatal(err)
	}
	if recold.Pool.Misses != int64(d.Rel.NumPages()) {
		t.Errorf("post-DropCaches run: %d misses, want %d", recold.Pool.Misses, d.Rel.NumPages())
	}
	if recold.Pool.IOSeconds <= 0 {
		t.Error("post-DropCaches run charged no disk time")
	}

	// Heap mutation: the generation check must reject the cached records.
	if ent := s.cache.lookup(d.Rel, s.DB.Pool.InvalidationCount()); ent == nil {
		t.Fatal("cache entry missing after re-extraction")
	}
	if _, err := d.Rel.Insert(make([]float64, d.Rel.Schema.NumCols())); err != nil {
		t.Fatal(err)
	}
	if ent := s.cache.lookup(d.Rel, s.DB.Pool.InvalidationCount()); ent != nil {
		t.Error("cache entry survived a heap mutation")
	}

	// Pool invalidation outside DropCaches (e.g. DROP TABLE) also
	// invalidates via the pool's invalidation counter.
	s2 := New(opts)
	d2 := deployScaled(t, s2, "Patient", 0.01)
	a2, err := d2.DSLAlgo(8)
	if err != nil {
		t.Fatal(err)
	}
	a2.SetEpochs(2)
	if _, err := s2.Register(a2, 8, d2.Tuples); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Train(a2.Name, d2.Rel.Name); err != nil {
		t.Fatal(err)
	}
	if ent := s2.cache.lookup(d2.Rel, s2.DB.Pool.InvalidationCount()); ent == nil {
		t.Fatal("cache not filled")
	}
	if err := s2.DB.Pool.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if ent := s2.cache.lookup(d2.Rel, s2.DB.Pool.InvalidationCount()); ent != nil {
		t.Error("cache entry survived direct pool invalidation")
	}
}

// TestColdTrainsOnOneEngineBitIdentical: a cold Train costs the same
// modeled time the first time and the fifth on a long-lived System — the
// run is charged the disk seconds of its own reads, not the pool's
// lifetime total (which had a cold Train read 0.24 s on a fresh engine
// and 12 s after ninety) — and re-extracting in parallel into the reset
// arena trains the same bits from the same counters.
func TestColdTrainsOnOneEngineBitIdentical(t *testing.T) {
	defer hostrt.GOMAXPROCS(hostrt.GOMAXPROCS(4))
	s, udf, table := ftSystem(t)
	var first *TrainResult
	for i := 0; i < 5; i++ {
		if err := s.DropCaches(); err != nil {
			t.Fatal(err)
		}
		res, err := s.Train(udf, table)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		requireSameModeled(t, fmt.Sprintf("cold train %d", i+1), res, first, first)
		if want := int64(i+1) * first.Pool.Misses; res.Pool.Misses != want || res.Pool.IOSeconds <= first.Pool.IOSeconds {
			t.Errorf("cold train %d: pool reads %d misses, %v s: TrainResult.Pool is the lifetime view (want %d misses)",
				i+1, res.Pool.Misses, res.Pool.IOSeconds, want)
		}
	}
}

// TestWorkerSweepBitIdentity is the metamorphic serial-vs-parallel
// check from the differential verification harness: the full grid of
// GOMAXPROCS {1,2,4,8} (the walker count) x {cache,spill} must produce
// bit-identical models and identical modeled cycle stats to the
// one-goroutine baseline that re-walks a larger-than-pool table every
// epoch, and simulated seconds identical to the one-goroutine run over
// the same pool. Parallelism and caching may only change host
// wall-clock.
func TestWorkerSweepBitIdentity(t *testing.T) {
	const (
		workload  = "Remote Sensing LR"
		scale     = 0.002
		mergeCoef = 16
		epochs    = 3
	)
	serial := map[bool]*TrainResult{}
	for _, spill := range []bool{true, false} {
		serial[spill] = trainConfigured(t, workload, scale, mergeCoef, epochs, 1, spill)
	}
	// The grid also runs with a zero-rate fault schedule attached: the
	// injection hooks, checksum verification, and recovery scaffolding
	// must be invisible when no fault fires.
	zeroFaults := func(o *Options) { o.Faults = fault.New(fault.Config{Seed: 7}) }
	for _, procs := range []int{1, 2, 4, 8} {
		for _, cfg := range []struct {
			spill   bool
			faulted bool
		}{{false, false}, {true, false}, {false, true}, {true, true}} {
			name := fmt.Sprintf("GOMAXPROCS=%d/cache", procs)
			if cfg.spill {
				name = fmt.Sprintf("GOMAXPROCS=%d/spill", procs)
			}
			var mods []func(*Options)
			if cfg.faulted {
				name += "+zerofaults"
				mods = append(mods, zeroFaults)
			}
			got := trainConfigured(t, workload, scale, mergeCoef, epochs, procs, cfg.spill, mods...)
			requireSameModeled(t, name, got, serial[true], serial[cfg.spill])
		}
	}
}

// TestChannelSweepBitIdentity extends the GOMAXPROCS sweep along the
// memory-channel axis, driven through the one number behind it
// (Cost.Link.Channels): over the full {GOMAXPROCS} × {channels} grid —
// on a table the pool holds and on one it does not, and with the PR 4
// zero-rate fault schedule attached — models, modeled cycle stats and
// epoch counts are bit-identical to the serial single-channel spilling
// baseline, simulated seconds are bit-identical to a serial run at the
// same link and pool (the channel count is a modeled quantity, so it
// moves the transfer charge and nothing else), and the per-channel obs
// split re-partitions the Strider totals exactly.
//
// The grid runs with the explicit Backend="accelerator" override while
// the baseline uses the "" default: both resolve to the same backend
// through the dispatch seam, so the sweep also proves the Backend
// refactor did not perturb any modeled quantity on the paper path.
func TestChannelSweepBitIdentity(t *testing.T) {
	const (
		workload  = "Remote Sensing LR"
		scale     = 0.002
		mergeCoef = 16
		epochs    = 3
	)
	serial := trainConfigured(t, workload, scale, mergeCoef, epochs, 1, true)
	zeroFaults := func(o *Options) { o.Faults = fault.New(fault.Config{Seed: 7}) }
	for _, channels := range []int{1, 2, 4} {
		link := func(o *Options) { o.Cost.Link.Channels = channels }
		serialAtLink := map[bool]*TrainResult{}
		for _, spill := range []bool{true, false} {
			serialAtLink[spill] = trainConfigured(t, workload, scale, mergeCoef, epochs, 1, spill, link)
		}
		for _, procs := range []int{1, 2, 4, 8} {
			for _, cfg := range []struct {
				spill   bool
				faulted bool
			}{{false, false}, {true, false}, {true, true}} {
				name := fmt.Sprintf("p=%d/c=%d/cache", procs, channels)
				if cfg.spill {
					name = fmt.Sprintf("p=%d/c=%d/spill", procs, channels)
				}
				reg := obs.New()
				mods := []func(*Options){link, func(o *Options) {
					o.Obs = reg
					o.Backend = "accelerator" // explicit override of the "" default
				}}
				if cfg.faulted {
					name += "+zerofaults"
					mods = append(mods, zeroFaults)
				}
				got := trainConfigured(t, workload, scale, mergeCoef, epochs, procs, cfg.spill, mods...)
				if got.Backend != "accelerator" || serial.Backend != "accelerator" {
					t.Fatalf("%s: backend %q (serial %q), want accelerator on both dispatch paths", name, got.Backend, serial.Backend)
				}
				requireSameModeled(t, name, got, serial, serialAtLink[cfg.spill])
				if n := reg.Get(obs.ChannelCount); n != int64(channels) {
					t.Fatalf("%s: channel.count = %d", name, n)
				}
				var sumBytes, sumBusy int64
				for c := 0; c < channels; c++ {
					sumBytes += reg.Get(obs.ChannelBytesStreamed(c))
					sumBusy += reg.Get(obs.ChannelBusyCycles(c))
				}
				if sumBytes != reg.Get(obs.StriderBytes) || sumBusy != reg.Get(obs.StriderCyclesTotal) {
					t.Errorf("%s: channel split %d bytes / %d busy cycles != strider totals %d / %d",
						name, sumBytes, sumBusy, reg.Get(obs.StriderBytes), reg.Get(obs.StriderCyclesTotal))
				}
			}
		}
	}
}

// newBenchRunner assembles an epochRunner the way Train does (access
// engine, configured accelerator backend, runner) so the allocation
// guard can drive epochs directly; spill gives it a pool smaller than
// the table. The caller must Close the returned backend.
func newBenchRunner(t *testing.T, spill bool) (*epochRunner, *backend.Accel) {
	t.Helper()
	opts := DefaultOptions()
	opts.PageSize = storage.PageSize8K
	opts.Cost.PoolBytes = 64 << 20
	if spill {
		opts.Cost.PoolBytes = spillPoolBytes
	}
	opts.DisableObs = true
	s := New(opts)
	d := deployScaled(t, s, "Remote Sensing LR", 0.01)
	a, err := d.DSLAlgo(16)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := s.Register(a, 16, d.Tuples)
	if err != nil {
		t.Fatal(err)
	}
	graph, err := hdfg.Translate(a)
	if err != nil {
		t.Fatal(err)
	}
	ns := acc.Design.NumStriders
	if ns < 1 {
		ns = 1
	}
	if ns > 16 {
		ns = 16
	}
	ae, err := accessengine.NewFor(strider.PostgresLayout(opts.PageSize), d.Rel.Schema, ns, acc.StriderProg, acc.StriderCfg)
	if err != nil {
		t.Fatal(err)
	}
	ae.SetObs(s.obs)
	be := backend.NewAccel(backend.Env{Obs: s.obs, Cost: opts.Cost, FPGA: opts.FPGA})
	if err := be.Configure(backend.Program{
		Graph:     graph,
		Engine:    acc.Program,
		EngineCfg: acc.Design.Engine,
		Striders:  ns,
		MergeCoef: 16,
		PageSize:  opts.PageSize,
		Tuples:    d.Tuples,
	}); err != nil {
		t.Fatal(err)
	}
	return s.newEpochRunner(ae, d.Rel, be), be
}

// TestHotPathsAllocationFree is the runtime counterpart of the hotcall
// analyzer: after warm-up (arena sized, buffers grown), a steady-state
// epoch must allocate O(1) — never per page or per tuple — on both of
// the shapes a run settles into: the serial re-walk of a table larger
// than the pool, through its one recycled result, and the record-cache
// replay of one that fits. The relation here spans dozens of pages and
// thousands of tuples, so any per-page regression blows through the
// bound by an order of magnitude.
func TestHotPathsAllocationFree(t *testing.T) {
	for _, leg := range []struct {
		name  string
		spill bool
	}{{"serial recycling", true}, {"cache replay", false}} {
		r, m := newBenchRunner(t, leg.spill)
		if fits := r.rel.NumPages() <= r.s.Pool().NumFrames(); fits == leg.spill {
			t.Fatalf("%s: %d pages in %d frames", leg.name, r.rel.NumPages(), r.s.Pool().NumFrames())
		}
		for e := 0; e < 2; e++ {
			if err := r.runEpoch(e); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(3, func() {
			if err := r.runEpoch(2); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 16 {
			t.Errorf("%s epoch allocates %.0f times (%d pages); hot path regressed", leg.name, allocs, r.rel.NumPages())
		}
		m.Close()
	}
}

// TestTrainRunsCatalogProgram (white box): the Strider program a Train's
// access engine holds is the catalog's own — the slice buildAccelerator
// verified and danactl prints, not a regenerated equal — and Trains
// verify nothing again.
func TestTrainRunsCatalogProgram(t *testing.T) {
	s, udfName, table := ftSystem(t)
	udf, rel, acc, job, err := s.resolve(udfName, table, s.Opts.Precision)
	if err != nil {
		t.Fatal(err)
	}
	be, _, job, err := s.disp.Resolve(s.Opts.Backend, job)
	if err != nil {
		t.Fatal(err)
	}
	prog := s.programFor(udf, rel, acc, job.Bits)
	if err := be.Configure(prog); err != nil {
		t.Fatal(err)
	}
	defer be.(backend.Closer).Close()
	feed, err := s.newEpochFeed(rel, be, acc, prog.Striders)
	if err != nil {
		t.Fatal(err)
	}
	if feed.ae == nil {
		t.Fatal("the default backend got no access engine")
	}
	got := feed.ae.Program()
	if len(got) == 0 || len(got) != len(acc.StriderProg) || &got[0] != &acc.StriderProg[0] {
		t.Errorf("the feed runs a %d-instruction program at %p; the catalog holds %d at %p",
			len(got), got, len(acc.StriderProg), acc.StriderProg)
	}
	if feed.ae.Config() != acc.StriderCfg {
		t.Errorf("the feed's Strider config %+v is not the catalog's %+v", feed.ae.Config(), acc.StriderCfg)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Train(udfName, table); err != nil {
			t.Fatal(err)
		}
	}
	if runs := obsCount(t, s, obs.StriderVerifyRuns); runs != 1 {
		t.Errorf("%d Strider verifications after Register and 3 Trains, want Register's one", runs)
	}
}

// TestTrainAllocBudget: a Train served by the record cache allocates at
// most half of what it did while every call regenerated, assembled and
// verified the Strider program, built 16 VMs and copied the epoch's tail
// batch: 148 allocations on this configuration then (196 on its bench
// twin, glm_cached), 24 now. The rest is per-Train by design — the
// configured machine, its plan and the result. A weave Train that finds
// its pages held adds only what decoding them once takes (the reweaver,
// its extractor's scratch, the decoded rows' slab and views): 39, and
// its budget is the 43 it took while every epoch rewove through a
// 32-level page buffer of its own.
func TestTrainAllocBudget(t *testing.T) {
	for _, leg := range []struct {
		name      string
		precision int
		budget    float64
	}{{"accelerator", 0, 148 / 2}, {"weave, pages held", 8, 43}} {
		s, udfName, table := ftSystem(t, func(o *Options) { o.Precision = leg.precision })
		train := func() {
			if _, err := s.Train(udfName, table); err != nil {
				t.Fatal(err)
			}
		}
		train() // fills the record cache (and weaves the pages held beside it)
		misses, builds := obsCount(t, s, obs.RuntimeCacheMisses), obsCount(t, s, obs.WeaveBuilds)
		if a := testing.AllocsPerRun(5, train); a > leg.budget {
			t.Errorf("%s: a cache-served Train allocates %.0f times, budget %.0f", leg.name, a, leg.budget)
		}
		if got := obsCount(t, s, obs.RuntimeCacheMisses); got != misses {
			t.Errorf("%s: the measured Trains missed the record cache %d times", leg.name, got-misses)
		}
		if got := obsCount(t, s, obs.WeaveBuilds); got != builds {
			t.Errorf("%s: the measured Trains wove %d times", leg.name, got-builds)
		}
	}
}
